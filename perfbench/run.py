"""Benchmark for `embkit mine`: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload mine-retrieval --seed 1 --seconds 60 --trace 0

Run from the repository root.  The inputs of the workload are generated from
the seed into ``.perfbench_work/``; a separate worker process then runs
``pipeline.run_mine`` from ``src/`` for about ``--seconds`` seconds.  With
``--trace 0`` the result carries the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics, from runs where every public
function on the `mine` path is wrapped in a span (spans are written to
``.perfbench_out/``).  Every run is checked for correct output.  The last
stdout line is the JSON result; everything above it is a readable report.
``--smoke`` shrinks each workload to fixture size for the benchmark's tests.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from check import check_fused, check_mined, load_teacher
from workloads import SMOKE, WORKLOADS, generate, set_endpoint

HERE = Path(__file__).resolve().parent
CHECK_SAMPLE = 25


def start_stub() -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen([sys.executable, str(HERE / "stub.py")], stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if not line.startswith("PORT "):
        proc.kill()
        proc.wait()
        raise RuntimeError("stub cross-encoder did not start")
    return proc, f"http://127.0.0.1:{int(line.split()[1])}"


def stop(proc: subprocess.Popen | None) -> None:
    if proc is None or proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def median_of(iterations: list[dict], key: str) -> float:
    return statistics.median(it[key] for it in iterations)


def fmt(name: str, value, unit: str, note: str = "") -> str:
    return f"  {name:<26} {value:>14.6g} {unit:<14}{note}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="fixture-sized inputs")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "embkit" / "__init__.py").is_file():
        print("perfbench: src/embkit not found; run from the repository root", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    spec = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    work = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    spans_path = None
    if args.trace:
        (root / ".perfbench_out").mkdir(exist_ok=True)
        spans_path = root / ".perfbench_out" / f"spans-{args.workload}-s{args.seed}.jsonl"
        spans_path.unlink(missing_ok=True)
    stub = None
    try:
        gen = generate(spec, args.seed, work)
        command = [sys.executable, str(HERE / "worker.py"), "--config", str(gen.config),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if spec.wire:
            stub, url = start_stub()
            set_endpoint(gen.config, url + "/score")
            command += ["--stub-stats", url + "/stats"]
        if spans_path:
            command += ["--spans", str(spans_path)]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 120)
        if done.returncode != 0 or not done.stdout.strip():
            print(f"perfbench: worker failed with exit code {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])

        iterations = result["iterations"]
        good = [it for it in iterations if it["ok"]]
        if not good:
            print("perfbench: every run_mine iteration failed", file=sys.stderr)
            return 1
        out = work / "out"
        sample = sorted(random.Random(args.seed).sample(range(len(gen.queries)),
                                                        min(CHECK_SAMPLE, len(gen.queries))))
        try:
            teacher = load_teacher(out)
            errors = check_mined(out, teacher, sum(len(p) for p in gen.positives.values()))
            errors += check_fused(gen, teacher, sample)
        except Exception as exc:  # outputs missing or malformed: every iteration fails
            errors = [f"outputs of the last iteration unreadable: {exc!r}"]
        reference_digests = good[-1]["outputs"]
        for it in iterations:
            it["ok"] = it["ok"] and not errors and it["outputs"] == reference_digests
        for message in errors[:20]:
            print(f"CHECK FAILED: {message}", file=sys.stderr)
        good = [it for it in iterations if it["ok"]]
        failed = len(iterations) - len(good)
        if not good:  # still report what was measured, marked incorrect
            good = [it for it in iterations if "mine_s" in it]

        props = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in gen.properties.items())
        print(f"workload {args.workload} seed {args.seed}{' (smoke)' if args.smoke else ''}: {props}")
        if args.trace:
            traced = [it for it in good if it["traced"]]
            untraced = [it for it in good if not it["traced"]]
            layers = {key: statistics.median(it["layers"][key] for it in traced)
                      for key in traced[0]["layers"]}
            mine_traced = median_of(traced, "mine_s")
            layers["trace.overhead_frac"] = mine_traced / median_of(untraced, "mine_s") - 1.0
            metrics = {m["name"]: layers[m["name"]] for m in wanted}
            print(f"per-layer metrics, median of {len(traced)} traced runs:")
            for m in wanted:
                print(fmt(m["name"], metrics[m["name"]], m["unit"]))
            print("share of traced mine_s:")
            print(fmt("dense load+search", (layers["dense.load_s"] + layers["dense.search_s"]) / mine_traced, "ratio"))
            print(fmt("lexical build+search", (layers["lexical.build_s"] + layers["lexical.search_s"]) / mine_traced, "ratio"))
            print(fmt("rerank wait", layers["rerank.wait_s"] / mine_traced, "ratio"))
        else:
            mine_s = median_of(good, "mine_s")
            metrics = {
                "mine_s": mine_s,
                "queries_per_s": good[0]["queries"] / mine_s,
                "setup_s": median_of(good, "setup_s"),
                "peak_rss_mb": result["peak_rss_mb"],
            }
            metrics = {m["name"]: metrics[m["name"]] for m in wanted}
            print("end-to-end metrics:")
            for m in wanted:
                note = f"  (median of {len(good)} runs)" if m["unit"] in ("s", "1/s") else ""
                print(fmt(m["name"], metrics[m["name"]], m["unit"], note))
            stubbed = good[-1]["stub"]
            print(fmt("upstream_requests", stubbed["requests"], "count", "  (per run_mine)"))
            print(fmt("upstream_pairs", stubbed["pairs"], "count", "  (per run_mine)"))
        print(fmt("failed_run_frac", failed / len(iterations), "ratio", f"  ({failed} of {len(iterations)})"))

        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(iterations),
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        }))
        return 0
    finally:
        stop(stub)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
