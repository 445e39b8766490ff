"""Leaderboard aggregation: per-task and per-category means, Borda ranking.

Each task acts as a voter over the models.  Per task a model earns one
point for every model it strictly beats and half a point for every model
it ties with (the tournament tie rule); points are summed across tasks.
On strict orders this reduces to the classical Borda count, and the total
points handed out per task is always m(m-1)/2 for m models, which makes
point conservation a cheap structural check.  Borda depends only on the
per-task orderings, never on score magnitudes, so a model can win the
Borda ranking while losing the mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import jsonl
from .errors import RecordError, ValidationError


@dataclass
class EvalMatrix:
    """Complete model x task score table with a fixed task -> category mapping."""

    models: list[str]
    tasks: list[tuple[str, str]]
    scores: dict[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.models)) != len(self.models):
            raise ValidationError("duplicate model names")
        names = [task for task, _ in self.tasks]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate task names")
        for model in self.models:
            for task, _ in self.tasks:
                if (model, task) not in self.scores:
                    raise ValidationError(f"missing score for ({model}, {task})")

    @property
    def categories(self) -> list[str]:
        seen: list[str] = []
        for _, category in self.tasks:
            if category not in seen:
                seen.append(category)
        return seen

    def category_tasks(self, category: str) -> list[str]:
        tasks = [task for task, cat in self.tasks if cat == category]
        if not tasks:
            raise ValidationError(f"unknown category '{category}'")
        return tasks

    def category_sizes(self) -> dict[str, int]:
        sizes: dict[str, int] = {}
        for _, category in self.tasks:
            sizes[category] = sizes.get(category, 0) + 1
        return sizes

    def score(self, model: str, task: str) -> float:
        return self.scores[(model, task)]


@dataclass(frozen=True)
class BordaResult:
    points: dict[str, float]
    ranking: list[str]
    ties: tuple[tuple[str, ...], ...] = ()


def load_eval_matrix(path) -> EvalMatrix:
    """Load {"model", "task", "category", "score"} records into a complete matrix."""
    models: list[str] = []
    tasks: list[tuple[str, str]] = []
    task_category: dict[str, str] = {}
    scores: dict[tuple[str, str], float] = {}
    for lineno, record in jsonl.iter_records(path):
        model = jsonl.string(record, "model", path, lineno)
        task = jsonl.string(record, "task", path, lineno)
        category = jsonl.string(record, "category", path, lineno)
        score = jsonl.number(jsonl.require(record, "score", path, lineno), "score", path, lineno)
        if not 0.0 <= score <= 100.0:
            raise RecordError(path, lineno, f"score {score} outside [0, 100]")
        if task in task_category and task_category[task] != category:
            raise RecordError(
                path, lineno,
                f"task '{task}' listed under both '{task_category[task]}' and '{category}'",
            )
        if (model, task) in scores:
            raise RecordError(path, lineno, f"duplicate score for ({model}, {task})")
        if task not in task_category:
            task_category[task] = category
            tasks.append((task, category))
        if model not in models:
            models.append(model)
        scores[(model, task)] = score
    return EvalMatrix(models=models, tasks=tasks, scores=scores)


def task_mean(matrix: EvalMatrix, model: str) -> float:
    """Unweighted mean over all tasks."""
    return sum(matrix.score(model, task) for task, _ in matrix.tasks) / len(matrix.tasks)


def category_mean(matrix: EvalMatrix, model: str, category: str) -> float:
    tasks = matrix.category_tasks(category)
    return sum(matrix.score(model, task) for task in tasks) / len(tasks)


def weighted_mean(matrix: EvalMatrix, model: str, weights: dict[str, float] | None = None) -> float:
    """Category-weighted mean; default weights are task counts, recovering task_mean."""
    sizes = matrix.category_sizes()
    if weights is None:
        weights = {category: float(size) for category, size in sizes.items()}
    missing = set(sizes) - set(weights)
    if missing:
        raise ValidationError(f"weights missing for categories: {sorted(missing)}")
    total = sum(weights[c] for c in sizes)
    if not total > 0:
        raise ValidationError("weights must sum to a positive value")
    return sum(weights[c] * category_mean(matrix, model, c) for c in sizes) / total


def borda_rank(matrix: EvalMatrix) -> BordaResult:
    """Tournament Borda count over all tasks.

    Final ordering is by points descending; equal points are broken
    lexicographically by model name and reported in the ties field.
    """
    if len(matrix.models) < 2:
        raise ValidationError("Borda ranking needs at least 2 models")
    points = {model: 0.0 for model in matrix.models}
    for task, _ in matrix.tasks:
        column = {model: matrix.score(model, task) for model in matrix.models}
        for model, score in column.items():
            wins = sum(1 for other, s in column.items() if other != model and s < score)
            ties = sum(1 for other, s in column.items() if other != model and s == score)
            points[model] += wins + 0.5 * ties
    ranking = sorted(matrix.models, key=lambda m: (-points[m], m))
    tie_groups: list[tuple[str, ...]] = []
    group: list[str] = []
    for model in ranking:
        if group and points[model] == points[group[0]]:
            group.append(model)
        else:
            if len(group) > 1:
                tie_groups.append(tuple(group))
            group = [model]
    if len(group) > 1:
        tie_groups.append(tuple(group))
    return BordaResult(points=points, ranking=ranking, ties=tuple(tie_groups))


def leaderboard(matrix: EvalMatrix) -> list[dict]:
    """One record per model: category means, task mean, Borda points, final rank.

    Models ranked by Borda come first; a trailing '*' on the rank marks a
    tie broken by name.
    """
    result = borda_rank(matrix)
    tied = {model for group in result.ties for model in group}
    rows = []
    for rank, model in enumerate(result.ranking, start=1):
        row: dict = {"model": model, "rank": rank, "tie_broken_by_name": model in tied}
        row["borda_points"] = result.points[model]
        row["task_mean"] = task_mean(matrix, model)
        row["categories"] = {
            category: category_mean(matrix, model, category)
            for category in matrix.categories
        }
        rows.append(row)
    return rows


def format_leaderboard(matrix: EvalMatrix) -> str:
    """Plain-text leaderboard table."""
    rows = leaderboard(matrix)
    categories = matrix.categories
    headers = ["rank", "model"] + categories + ["mean(task)", "borda"]
    table = []
    for row in rows:
        rank = f"{row['rank']}{'*' if row['tie_broken_by_name'] else ''}"
        cells = [rank, row["model"]]
        cells += [f"{row['categories'][c]:.2f}" for c in categories]
        cells += [f"{row['task_mean']:.2f}", f"{row['borda_points']:g}"]
        table.append(cells)
    widths = [max(len(h), *(len(r[i]) for r in table)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for cells in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
    if any(row["tie_broken_by_name"] for row in rows):
        lines.append("* tie on Borda points broken lexicographically by model name")
    return "\n".join(lines)
