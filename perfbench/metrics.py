"""Metric names, summary statistics and the metric catalogue.

The catalogue here is the single list of what the benchmark reports;
``BENCHMARK.json`` at the repository root must name the same metrics
(the test suite checks that they agree).
"""

from __future__ import annotations

import math
import re
import statistics

NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# nearest-rank percentiles tried from the top down by ``tail_percentile``
PERCENTILE_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def check_name(name: str) -> str:
    """Return ``name`` if it fits the metric-name grammar, else raise."""
    if not NAME_PATTERN.fullmatch(name):
        raise ValueError(f"metric name {name!r} does not match [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}")
    return name


def median(samples) -> float:
    return float(statistics.median(samples))


def tail_percentile(samples) -> tuple[float, float] | None:
    """(p, value) for the highest percentile with at least ten samples
    beyond it, or None when even the median has fewer than ten above it.

    Percentiles are nearest-rank: the p-th percentile of n sorted samples
    is the one at 1-based rank ceil(p/100 * n), and the samples beyond it
    are the n - rank that follow.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in PERCENTILE_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            return p, float(ordered[rank - 1])
    return None


def describe(samples, unit: str) -> str:
    """Median, the tail percentile when one qualifies, and the count."""
    text = f"{median(samples):.6g} {unit}"
    tail = tail_percentile(samples)
    if tail is not None:
        text += f", p{tail[0]:g} {tail[1]:.6g} {unit}"
    return text + f" (n={len(samples)})"


MODES = ("none", "explicit", "coeff")

# metrics a user of the CLI sees, reported by every workload (--trace 0)
END_TO_END = {
    "setup_s": "s",
    "ingest_s": "s",
    "cluster_s": "s",
    "pipeline_s": "s",
    "eval_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# end-to-end figures that exist only on some workloads; printed in the
# report, not in the result line (see README.md)
WORKLOAD_SPECIFIC = {
    **{f"train_samples_per_s.{m}": "1/s" for m in MODES},
    **{f"test_srmse.{m}": "srmse" for m in MODES},
    "time_to_target_s": "s",
    "error_rate": "ratio",
}

PRIMITIVES = (
    "conv1d",
    "channelwise_conv1d",
    "maxpool1d",
    "matmul",
    "activation",
    "concat",
    "gather_rows",
    "reshape",
    "rowscale",
    "take_column",
    "softmax_rows",
    "elementwise",
)

LAYER_CLASSES = (
    "Conv1DLayer",
    "GroupedConv1DLayer",
    "ClusteringCoeffLayer",
    "MaxPool1DLayer",
    "FlattenLayer",
    "DenseLayer",
)

CLI_COMMANDS = ("ingest", "cluster", "train", "eval")


def _per_layer() -> dict[str, str]:
    out: dict[str, str] = {}
    for prim in PRIMITIVES:
        out[f"tensor.{prim}.fwd_s"] = "s"
        out[f"tensor.{prim}.bwd_s"] = "s"
        out[f"tensor.{prim}.calls"] = "count"
    out.update({
        "tensor.tape_entries": "count",
        "tensor.tape_build_s": "s",
        "tensor.backward_s": "s",
        "tensor.conv_flops": "flop",
        "tensor.conv1d.bytes": "B",
        "tensor.channelwise_conv1d.bytes": "B",
    })
    for cls in LAYER_CLASSES:
        out[f"layers.{cls}.fwd_s"] = "s"
        out[f"layers.{cls}.bwd_s"] = "s"
    out.update({
        "models.save_checkpoint_s": "s",
        "models.load_checkpoint_s": "s",
        "models.checkpoint_bytes": "B",
        "models.build_model_s": "s",
        "models.forward_s": "s",
        "training.forward_s": "s",
        "training.backward_s": "s",
        "training.update_s": "s",
        "training.validate_s": "s",
        "training.steps": "count",
        "training.evaluate_s": "s",
        "spectral.similarity_s": "s",
        "spectral.sym_eig_s": "s",
        "spectral.kmeans_s": "s",
        "spectral.ncut_s": "s",
        "data.load_csv_s": "s",
        "data.repair_gaps_s": "s",
        "data.standardize_s": "s",
        "data.make_windows_s": "s",
        "data.window_bytes": "B",
        "data.split_s": "s",
        "data.dumps_csv_s": "s",
        "cli.config_s": "s",
    })
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.self_s"] = "s"
    out["trace.overhead_s"] = "s"
    return out


PER_LAYER = _per_layer()

# counts derived from shapes and file sizes rather than timed
COMPUTED = {
    "tensor.conv_flops",
    "tensor.conv1d.bytes",
    "tensor.channelwise_conv1d.bytes",
    "data.window_bytes",
    "models.checkpoint_bytes",
}
