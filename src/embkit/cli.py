"""Command-line interface: the mining pipeline and the data tools as subcommands.

Exit codes: 0 on success, 1 for configuration or input validation
problems, 2 for runtime stage failures.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import corpus as corpus_mod
from . import evalagg, forge, jsonl, loss as loss_mod, pipeline
from .errors import EmbkitError, RecordError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embkit",
        description="Hybrid-retrieval soft labels, hard-negative mining, and evaluation tools.",
    )
    parser.add_argument("--config", help="pipeline configuration file (JSON)")
    parser.add_argument("--seed", type=int, help="override mining.seed from the config")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("mine", help="run the full pipeline: records, teacher and reranker scores, manifest")

    convert = sub.add_parser("convert-nli", help="convert NLI pairs to similarity pairs")
    convert.add_argument("--input", required=True)
    convert.add_argument("--output", required=True)
    convert.add_argument("--high", type=float, default=forge.DEFAULT_HIGH_SIMILARITY,
                         help="similarity for entailment (default 1.0)")
    convert.add_argument("--low", type=float, default=forge.DEFAULT_LOW_SIMILARITY,
                         help="similarity for contradiction (default 0.0)")

    dedup = sub.add_parser("dedup", help="expand multi-positive pairs and drop duplicates")
    dedup.add_argument("--input", required=True)
    dedup.add_argument("--output", required=True)

    prompts = sub.add_parser("format-prompts", help="render instruction prompts for a query file")
    prompts.add_argument("--input", required=True)
    prompts.add_argument("--output", required=True)
    prompts.add_argument("--registry", help="instruction override file (JSONL)")

    loss_cmd = sub.add_parser("loss", help="evaluate contrastive losses on a similarity batch")
    grad_cmd = sub.add_parser("grad-check", help="finite-difference check of the loss gradients")
    for cmd in (loss_cmd, grad_cmd):
        cmd.add_argument("--batch", required=True, help="JSONL of s_pos / s_neg / teacher lines")
        cmd.add_argument("--tau", type=float, default=1.0, help="contrastive temperature (default 1.0)")
        cmd.add_argument("--tau-teacher", type=float, help="distillation temperature (default: tau)")
        cmd.add_argument("--in-batch", action="store_true",
                         help="append other queries' positives to each negative set")
    loss_cmd.add_argument("--lambda", dest="blend", type=float, default=0.5,
                          help="blend weight for InfoNCE vs distillation (default 0.5)")
    grad_cmd.add_argument("--eps", type=float, default=1e-5, help="finite-difference step")

    eval_cmd = sub.add_parser("eval", help="aggregate a model x task score file")
    eval_cmd.add_argument("--scores", required=True, help="JSONL of model/task/category/score")
    eval_cmd.add_argument("--json", dest="json_out", help="also write the leaderboard as JSON")

    return parser


def _load_config(args, *, required: bool = True) -> pipeline.PipelineConfig:
    """The config with --seed applied, or the defaults without --config when not `required`.

    Each command checks its config once: `run_mine` checks all of it, and
    `format-prompts`, which reads no input paths, everything but paths.
    """
    if args.config:
        config = pipeline.load_config(args.config)
    elif required:
        raise ValidationError("this command requires --config")
    else:
        config = pipeline.PipelineConfig()
    if args.seed is not None:
        config.settings["mining"]["seed"] = args.seed
    return config


def _cmd_mine(args) -> int:
    config = _load_config(args)
    manifest = pipeline.run_mine(config)
    out_dir = config.path("output_dir")
    print(f"mined {manifest['counts']['pairs']} pairs from {manifest['counts']['queries']} queries -> {out_dir}")
    print(f"config hash {manifest['config_hash'][:16]}")
    return EXIT_OK


def _cmd_convert_nli(args) -> int:
    records = forge.load_nli(args.input)
    converted = forge.convert_nli(records, high=args.high, low=args.low)
    forge.save_sts(args.output, converted)
    print(f"converted {len(records)} NLI pairs -> {len(converted)} similarity pairs ({args.output})")
    return EXIT_OK


def _cmd_dedup(args) -> int:
    records = jsonl.iter_records(args.input)
    first = next(records, None)
    records.close()
    if first is not None and "positives" in first[1]:
        expanded = list(corpus_mod.expand_pairs(corpus_mod.load_pairs(args.input)))
    else:
        expanded = corpus_mod.load_query_positives(args.input)
    unique = corpus_mod.dedup(expanded)
    corpus_mod.save_query_positives(args.output, unique)
    print(f"{len(expanded)} pairs in, {len(unique)} unique out ({args.output})")
    return EXIT_OK


def _cmd_format_prompts(args) -> int:
    config = _load_config(args, required=False)
    pipeline.require_valid(pipeline.validate_settings(config))
    registry = forge.InstructionRegistry()
    if args.registry:
        registry.merge_overrides(args.registry)
    shots = config["prompt"]["shots"]
    eos = config["prompt"]["eos_marker"]
    queries = corpus_mod.load_queries(args.input)
    rows = []
    for query in queries.values():
        instruction = registry.instruction_for(query.task)
        prompt = forge.format_prompt(instruction, shots.get(query.task, ()), query.text, eos)
        rows.append({"id": query.id, "task": query.task, "prompt": prompt})
    jsonl.write_records(args.output, rows)
    print(f"formatted {len(rows)} prompts ({args.output})")
    return EXIT_OK


def _load_batch(args):
    return loss_mod.load_batch_file(args.batch, tau=args.tau, tau_teacher=args.tau_teacher,
                                    in_batch=args.in_batch)


def _cmd_loss(args) -> int:
    loss_mod.check_blend(args.blend)  # whether or not the batch has teacher scores to blend
    batch, teacher = _load_batch(args)
    # Every value is computed before the first line is printed, so a bad
    # flag leaves stdout empty.
    lines = [f"infonce {loss_mod.infonce_loss(batch):.10f}"]
    if teacher is not None:
        lines.append(f"distill {loss_mod.soft_distill_loss(batch, teacher):.10f}")
        lines.append(f"blend({args.blend:g}) {loss_mod.blended_loss(batch, teacher, args.blend):.10f}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_grad_check(args) -> int:
    loss_mod.check_eps(args.eps)
    batch, teacher = _load_batch(args)
    lines = [f"grad-check infonce {loss_mod.infonce_grad_check(batch, args.eps):.3e}"]
    if teacher is not None:
        lines.append(f"grad-check distill {loss_mod.distill_grad_check(batch, teacher, args.eps):.3e}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_eval(args) -> int:
    matrix = evalagg.load_eval_matrix(args.scores)
    print(evalagg.format_leaderboard(matrix))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(evalagg.leaderboard(matrix), handle, indent=2)
            handle.write("\n")
        print(f"leaderboard JSON -> {args.json_out}")
    return EXIT_OK


_COMMANDS = {
    "mine": _cmd_mine,
    "convert-nli": _cmd_convert_nli,
    "dedup": _cmd_dedup,
    "format-prompts": _cmd_format_prompts,
    "loss": _cmd_loss,
    "grad-check": _cmd_grad_check,
    "eval": _cmd_eval,
}


# The commands that read each global flag; the others reject it.
_GLOBAL_FLAG_READERS = {"config": ("mine", "format-prompts"), "seed": ("mine",)}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag, readers in _GLOBAL_FLAG_READERS.items():
            if getattr(args, flag) is not None and args.command not in readers:
                raise ValidationError(f"{args.command} does not read --{flag} (read by: {', '.join(readers)})")
        return _COMMANDS[args.command](args)
    except (ValidationError, RecordError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EmbkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
