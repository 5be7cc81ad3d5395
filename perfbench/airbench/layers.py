"""The program's layers, the functions traced in each, and the per-layer metrics.

Each layer is one module of ``src/airmia``. The traced functions are the
public functions through which the layer's work flows; small helpers such as
``rfsim.wrap_phase`` or ``rfsim.mark_member`` are left alone because a span
would cost more than the work inside it. ``cli`` is traced by the benchmark's
own spans around each ``cli.dispatch`` call (``cli.gen``, ``cli.run``, ...).
"""

from __future__ import annotations

from airmia import classify, cli, harness, mia, rfsim, scenarios, tinynn

LAYERS = ("rfsim", "scenarios", "tinynn", "classify", "mia", "harness", "cli")

MODULES = {"rfsim": rfsim, "scenarios": scenarios, "tinynn": tinynn,
           "classify": classify, "mia": mia, "harness": harness, "cli": cli}

TARGETS = {
    "rfsim": ["propagate", "transmit_paired"],
    "scenarios": ["generate_scenario_data", "apply_scenario_constraints",
                  "write_samples_csv", "write_pairs_csv",
                  "read_samples_csv", "read_pairs_csv"],
    "tinynn": ["forward_batch", "backward", "adam_step", "train_supervised",
               "init_network", "save_model", "load_model"],
    "classify": ["train_target", "train_surrogate", "predicted_labels", "posterior_matrix",
                 "features_matrix", "classification_accuracy", "paired_agreement",
                 "grant_rate", "save_report", "load_report"],
    "mia": ["split_membership", "train_mia", "evaluate_mia", "mia_inputs",
            "save_mia_model", "load_mia_model"],
    "harness": ["run_all", "run_scenario", "save_artifacts", "save_datasets",
                "load_datasets", "load_artifacts", "reevaluate_artifacts", "write_json"],
}


def observations_drawn(config) -> int:
    """Observations one scenario generates: every provider and adversary view.

    Class-1 training transmissions and unauthorized nonmembers are paired (two
    views each); class-0 training samples and fresh authorized nonmembers are
    single views; surrogate and test traffic is paired.
    """
    c = config.counts
    class1 = c.provider_train // 2
    fresh_auth = c.nonmember_eval // 2
    return (2 * class1 + (c.provider_train - class1) + fresh_auth
            + 2 * (c.nonmember_eval - fresh_auth)
            + 2 * c.surrogate_train + 2 * c.provider_test)


COUNTERS = {
    "scenarios.generate_scenario_data":
        lambda args, result: {"scenarios.samples": observations_drawn(args[0])},
    "scenarios.write_samples_csv": lambda args, result: {"scenarios.csv_rows": len(args[0])},
    "scenarios.write_pairs_csv": lambda args, result: {"scenarios.csv_rows": 2 * len(args[0])},
    "scenarios.read_samples_csv": lambda args, result: {"scenarios.csv_rows": len(result)},
    "scenarios.read_pairs_csv": lambda args, result: {"scenarios.csv_rows": 2 * len(result)},
    "classify.train_target": lambda args, result: {
        "classify.target_sample_epochs": len(args[0]) * args[2].epochs},
}

# Per-layer metrics measured outside the traced operations: the step
# microbenchmarks, the size of what an operation persisted, and the tracing
# overhead (traced minus untraced wall time of one operation).
MEASURED_APART = tuple(
    f"tinynn.{net}_{part}" for net in ("classifier", "mia")
    for part in ("step_us", "forward_us", "backward_us", "adam_us", "step_flops")
) + ("harness.persist_mb", "trace.overhead_s")

# name -> unit, in report order. Values are per traced operation.
PER_LAYER_UNITS = {
    "rfsim.propagate_calls": "count",
    "rfsim.propagate_s": "s",
    "scenarios.generate_s": "s",
    "scenarios.samples_per_s": "1/s",
    "scenarios.write_csv_s": "s",
    "scenarios.read_csv_s": "s",
    "scenarios.csv_rows": "count",
    "tinynn.train_supervised_s": "s",
    "tinynn.forward_batch_calls": "count",
    "tinynn.forward_batch_s": "s",
    "tinynn.backward_calls": "count",
    "tinynn.backward_s": "s",
    "tinynn.adam_step_calls": "count",
    "tinynn.adam_step_s": "s",
    "tinynn.classifier_step_us": "us",
    "tinynn.classifier_forward_us": "us",
    "tinynn.classifier_backward_us": "us",
    "tinynn.classifier_adam_us": "us",
    "tinynn.classifier_step_flops": "count",
    "tinynn.mia_step_us": "us",
    "tinynn.mia_forward_us": "us",
    "tinynn.mia_backward_us": "us",
    "tinynn.mia_adam_us": "us",
    "tinynn.mia_step_flops": "count",
    "classify.train_target_s": "s",
    "classify.train_surrogate_s": "s",
    "classify.target_sample_epochs_per_s": "1/s",
    "classify.predicted_labels_s": "s",
    "mia.train_mia_s": "s",
    "mia.evaluate_mia_s": "s",
    "mia.split_membership_s": "s",
    "harness.run_scenario_s": "s",
    "harness.save_artifacts_s": "s",
    "harness.persist_mb": "MB",
    "harness.load_artifacts_s": "s",
    "harness.reevaluate_artifacts_s": "s",
    "cli.gen_s": "s",
    "cli.train_s": "s",
    "cli.attack_s": "s",
    "cli.run_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def per_layer_metrics(totals: dict, counts: dict, n_ops: int, extra: dict) -> dict:
    """Per-operation layer metrics from aggregated spans plus the MEASURED_APART values.

    A span name the workload never entered contributes 0.
    """

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0) / n_ops

    def calls(name):
        return totals.get(name, {}).get("calls", 0) // n_ops

    def rate(numerator, seconds):
        return numerator / seconds if seconds > 0 else 0.0

    generate_s = total("scenarios.generate_scenario_data")
    train_target_s = total("classify.train_target")
    values = {
        "rfsim.propagate_calls": calls("rfsim.propagate"),
        "rfsim.propagate_s": total("rfsim.propagate"),
        "scenarios.generate_s": generate_s,
        "scenarios.samples_per_s": rate(counts.get("scenarios.samples", 0) / n_ops,
                                        generate_s),
        "scenarios.write_csv_s": total("scenarios.write_samples_csv")
        + total("scenarios.write_pairs_csv"),
        "scenarios.read_csv_s": total("scenarios.read_samples_csv")
        + total("scenarios.read_pairs_csv"),
        "scenarios.csv_rows": counts.get("scenarios.csv_rows", 0) // n_ops,
        "tinynn.train_supervised_s": total("tinynn.train_supervised"),
        "tinynn.forward_batch_calls": calls("tinynn.forward_batch"),
        "tinynn.forward_batch_s": total("tinynn.forward_batch"),
        "tinynn.backward_calls": calls("tinynn.backward"),
        "tinynn.backward_s": total("tinynn.backward"),
        "tinynn.adam_step_calls": calls("tinynn.adam_step"),
        "tinynn.adam_step_s": total("tinynn.adam_step"),
        "classify.train_target_s": train_target_s,
        "classify.train_surrogate_s": total("classify.train_surrogate"),
        "classify.target_sample_epochs_per_s": rate(
            counts.get("classify.target_sample_epochs", 0) / n_ops, train_target_s),
        "classify.predicted_labels_s": total("classify.predicted_labels"),
        "mia.train_mia_s": total("mia.train_mia"),
        "mia.evaluate_mia_s": total("mia.evaluate_mia"),
        "mia.split_membership_s": total("mia.split_membership"),
        "harness.run_scenario_s": total("harness.run_scenario"),
        "harness.save_artifacts_s": total("harness.save_artifacts"),
        "harness.load_artifacts_s": total("harness.load_artifacts"),
        "harness.reevaluate_artifacts_s": total("harness.reevaluate_artifacts"),
        "cli.gen_s": total("cli.gen"),
        "cli.train_s": total("cli.train"),
        "cli.attack_s": total("cli.attack"),
        "cli.run_s": total("cli.run"),
        "trace.spans": sum(t["calls"] for t in totals.values()) // n_ops,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            t["self_s"] for name, t in totals.items()
            if name.split(".", 1)[0] == layer) / n_ops
    values.update(extra)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}
