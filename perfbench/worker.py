"""Measuring process for one workload: repeated `pipeline.run_mine` runs.

run.py starts it with PYTHONPATH set to the checkout's ``src`` so that this
process holds nothing but the workload, and its max RSS is the workload's.
Untraced (``--trace 0``), each iteration times ``pipeline.load_inputs`` on
its own and then one ``run_mine``.  Traced (``--trace 1``), untraced and
traced ``run_mine`` iterations alternate, so the tracing overhead is
measured under the same conditions.  Each iteration checks that the
manifest digests match the files on disk.  The last stdout line is JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import traceback
import urllib.request
from pathlib import Path
from time import perf_counter

from embkit import pipeline

from spans import Tracer, layer_metrics

STUB_COUNTS = ("requests", "pairs", "rejected_413", "errors_5xx")


def stub_counts(stats_url: str | None) -> dict[str, int]:
    if not stats_url:
        return dict.fromkeys(STUB_COUNTS, 0)
    with urllib.request.urlopen(stats_url, timeout=10) as response:
        return json.loads(response.read())


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def manifest_matches(config, manifest: dict) -> bool:
    """Check 1: every digest in the manifest matches the file on disk."""
    out = Path(config.path("output_dir"))
    files = {key: config.path(key) for key in manifest["inputs"]}
    files.update({name: out / name for name in manifest["outputs"]})
    digests = {**manifest["inputs"], **manifest["outputs"]}
    return all(sha256(path) == digests[key] for key, path in files.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--stub-stats", default=None, help="stub /stats URL (wire workloads)")
    parser.add_argument("--spans", default=None, help="JSONL file the traced spans are appended to (needed with --trace 1)")
    args = parser.parse_args(argv)
    if args.trace and not args.spans:
        parser.error("--trace 1 needs --spans")

    config = pipeline.load_config(args.config)
    out = Path(config.path("output_dir"))
    min_iterations = 4 if args.trace else 3
    iterations: list[dict] = []
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        record: dict = {"traced": traced, "ok": False}
        try:
            if not args.trace:
                gc.collect()
                t0 = perf_counter()
                inputs = pipeline.load_inputs(config)
                record["setup_s"] = perf_counter() - t0
                del inputs
            gc.collect()
            before = stub_counts(args.stub_stats)
            tracer = Tracer() if traced else None
            if tracer:
                tracer.install()
            try:
                t0 = perf_counter()
                manifest = pipeline.run_mine(config)
                record["mine_s"] = perf_counter() - t0
            finally:
                if tracer:
                    tracer.uninstall()
            after = stub_counts(args.stub_stats)
            stub = {key: after[key] - before[key] for key in STUB_COUNTS}
            record.update(stub=stub, outputs=manifest["outputs"], queries=manifest["counts"]["queries"])
            if tracer:
                output_bytes = sum((out / name).stat().st_size for name in (*manifest["outputs"], "manifest.json"))
                record["layers"] = layer_metrics(tracer.spans, stub, output_bytes)
                tracer.write(args.spans, len(iterations))
            record["ok"] = manifest_matches(config, manifest) and stub["errors_5xx"] == 0
        except Exception:
            traceback.print_exc(file=sys.stderr)
        iterations.append(record)
        done = len(iterations)
        elapsed = perf_counter() - start
        if done >= min_iterations and elapsed * (done + 1) / done > args.seconds:
            break

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"iterations": iterations, "peak_rss_mb": peak_kib / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
