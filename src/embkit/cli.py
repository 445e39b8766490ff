"""Command-line interface: every pipeline stage as a subcommand.

Exit codes: 0 on success, 1 for configuration or input validation
problems, 2 for runtime stage failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import evalagg, forge, fusion, jsonl, loss as loss_mod, pipeline
from .errors import (
    EmbkitError,
    PipelineStageError,
    RecordError,
    RerankProtocolError,
    RerankTransportError,
    ValidationError,
)

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
    parser.add_argument("--strict", action="store_true",
                        help="abort on missing reranker scores (overrides config)")
    sub = parser.add_subparsers(dest="command", required=True)

    rerank_cmd = sub.add_parser("rerank", help="score candidate pools and write the score cache")
    rerank_cmd.add_argument("--out", help="score file (default: <output_dir>/reranker_scores.jsonl)")

    fuse = sub.add_parser("fuse", help="fuse the three channels into teacher score sets")
    fuse.add_argument("--out", help="output file (default: <output_dir>/teacher_scores.jsonl)")

    mine = sub.add_parser("mine", help="run the full pipeline: records plus manifest")
    mine.add_argument("--workers", type=int, help="worker pool size (overrides config)")

    convert = sub.add_parser("convert-nli", help="convert NLI pairs to similarity pairs")
    convert.add_argument("--input", required=True)
    convert.add_argument("--output", required=True)
    convert.add_argument("--high", type=float, help="similarity for entailment (default from config or 1.0)")
    convert.add_argument("--low", type=float, help="similarity for contradiction (default from config or 0.0)")

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
        cmd.add_argument("--tau", type=float, help="contrastive temperature (default from config or 1.0)")
        cmd.add_argument("--tau-teacher", type=float, help="distillation temperature (default: tau)")
        cmd.add_argument("--lambda", dest="blend", type=float,
                         help="blend weight for InfoNCE vs distillation (default 0.5)")
        cmd.add_argument("--in-batch", action="store_true",
                         help="append other queries' positives to each negative set")
    loss_cmd.add_argument("--grad-check", action="store_true", dest="also_grad",
                          help="also report the max relative gradient error")
    grad_cmd.add_argument("--eps", type=float, default=1e-5, help="finite-difference step")

    eval_cmd = sub.add_parser("eval", help="aggregate a model x task score file")
    eval_cmd.add_argument("--scores", required=True, help="JSONL of model/task/category/score")
    eval_cmd.add_argument("--json", dest="json_out", help="also write the leaderboard as JSON")

    return parser


def _load_config(args, *, needs_paths: bool = True) -> pipeline.PipelineConfig:
    """The validated config with --seed and --strict applied.

    Commands that read no input paths fall back to the defaults without
    --config, and their config is checked for everything but paths.
    """
    if args.config:
        config = pipeline.load_config(args.config)
    elif needs_paths:
        raise ValidationError("this command requires --config")
    else:
        config = pipeline.PipelineConfig()
    if args.seed is not None:
        config.settings["mining"]["seed"] = args.seed
    if args.strict:
        config.settings["strict"] = True
    validate = pipeline.validate_config if needs_paths else pipeline.validate_settings
    problems = validate(config)
    if problems:
        raise ValidationError("invalid config:\n  " + "\n  ".join(problems))
    return config


def _out_path(config: pipeline.PipelineConfig, arg: str | None, default_name: str) -> Path:
    if arg:
        return Path(arg)
    out_dir = Path(config.path("output_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / default_name


def _cmd_rerank(args) -> int:
    config = _load_config(args)
    inputs = pipeline.load_inputs(config)
    pipeline.score_all_queries(config, inputs)
    out = _out_path(config, args.out, "reranker_scores.jsonl")
    count = inputs.gateway.scores.save(out)
    calls = inputs.gateway.client.upstream_calls if inputs.gateway.client else 0
    print(f"wrote {count} pair scores ({calls} upstream calls) -> {out}")
    return EXIT_OK


def _cmd_fuse(args) -> int:
    config = _load_config(args)
    inputs = pipeline.load_inputs(config)
    teacher_sets = pipeline.score_all_queries(config, inputs)
    out = _out_path(config, args.out, pipeline.TEACHER_SCORES_FILE)
    fusion.save_teacher_scores(out, [teacher_sets[qid] for qid in sorted(teacher_sets)])
    print(f"fused {len(teacher_sets)} queries -> {out}")
    return EXIT_OK


def _cmd_mine(args) -> int:
    config = _load_config(args)
    manifest = pipeline.run_mine(config, workers=args.workers)
    out_dir = config.path("output_dir")
    print(f"mined {manifest['counts']['pairs']} pairs from {manifest['counts']['queries']} queries -> {out_dir}")
    print(f"config hash {manifest['config_hash'][:16]}")
    return EXIT_OK


def _flag(value, configured):
    """A command-line flag's value when given, else the config's."""
    return configured if value is None else value


def _cmd_convert_nli(args) -> int:
    nli = _load_config(args, needs_paths=False)["nli"]
    records = forge.load_nli(args.input)
    converted = forge.convert_nli(records, high=_flag(args.high, nli["high"]), low=_flag(args.low, nli["low"]))
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
    config = _load_config(args, needs_paths=False)
    registry = forge.InstructionRegistry()
    if args.registry:
        registry.merge_overrides(args.registry)
    shots = config.prompt_shots()
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


def _loss_settings(args) -> tuple[float, float | None, float]:
    loss_cfg = _load_config(args, needs_paths=False)["loss"]
    return (_flag(args.tau, loss_cfg["tau"]), _flag(args.tau_teacher, loss_cfg["tau_teacher"]),
            _flag(args.blend, loss_cfg["lambda"]))


def _cmd_loss(args) -> int:
    tau, tau_teacher, blend = _loss_settings(args)
    batch, teacher = loss_mod.load_batch_file(
        args.batch, tau=tau, tau_teacher=tau_teacher, in_batch=args.in_batch
    )
    print(f"infonce {loss_mod.infonce_loss(batch):.10f}")
    if teacher is not None:
        print(f"distill {loss_mod.soft_distill_loss(batch, teacher):.10f}")
        print(f"blend({blend:g}) {loss_mod.blended_loss(batch, teacher, blend):.10f}")
    if getattr(args, "also_grad", False):
        _print_grad_errors(batch, teacher, eps=1e-5)
    return EXIT_OK


def _cmd_grad_check(args) -> int:
    tau, tau_teacher, _ = _loss_settings(args)
    batch, teacher = loss_mod.load_batch_file(
        args.batch, tau=tau, tau_teacher=tau_teacher, in_batch=args.in_batch
    )
    _print_grad_errors(batch, teacher, eps=args.eps)
    return EXIT_OK


def _print_grad_errors(batch, teacher, eps: float) -> None:
    print(f"grad-check infonce {loss_mod.infonce_grad_check(batch, eps):.3e}")
    if teacher is not None:
        print(f"grad-check distill {loss_mod.distill_grad_check(batch, teacher, eps):.3e}")


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
    "rerank": _cmd_rerank,
    "fuse": _cmd_fuse,
    "mine": _cmd_mine,
    "convert-nli": _cmd_convert_nli,
    "dedup": _cmd_dedup,
    "format-prompts": _cmd_format_prompts,
    "loss": _cmd_loss,
    "grad-check": _cmd_grad_check,
    "eval": _cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PipelineStageError, RerankTransportError, RerankProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValidationError, RecordError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EmbkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
