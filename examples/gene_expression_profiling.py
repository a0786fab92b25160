#!/usr/bin/env python
"""Case study: single-cell gene expression profiling with hybrid scheduling.

Reproduces the paper's benchmark case 2 (Zhong et al. 2008) at a reduced
scale so it runs in seconds: four parallel single-cell pipelines, each
starting with an *indeterminate* cell-capture operation.  Shows

* how the layering algorithm separates the indeterminate captures from the
  downstream chemistry,
* the hybrid schedule with its symbolic ``I_1`` term,
* a simulated cyberphysical run resolving that term (cells captured with
  ~53 % per-attempt success, as reported for single-cell traps [11]).

Run with::

    python examples/gene_expression_profiling.py
"""

from repro import SynthesisSpec, synthesize
from repro.assays import gene_expression_assay
from repro.cyberphysical import ExecutionEngine
from repro.io import render_gantt
from repro.runtime import RetryModel


def main() -> None:
    assay = gene_expression_assay(cells=4)  # 28 ops, 4 indeterminate
    print(f"{assay.name}: {len(assay)} operations, "
          f"{assay.num_indeterminate} indeterminate")

    spec = SynthesisSpec(
        max_devices=12, threshold=10, time_limit=15.0, max_iterations=1,
    )
    result = synthesize(assay, spec)

    print(f"\nlayering: {result.layering.num_layers} layers")
    for layer in result.layering.layers:
        ind = len(layer.indeterminate_uids)
        print(f"  layer {layer.index}: {len(layer)} ops "
              f"({ind} indeterminate)")

    print(f"\nscheduled execution time: {result.makespan_expression}")
    print(f"devices: {result.num_devices}, paths: {result.num_paths}")
    print()
    print(render_gantt(result.schedule, width=64, labels=False))

    # Cyberphysical run: sample actual capture durations.
    print("\nsimulated runs (per-attempt capture success 53%):")
    for seed in range(3):
        report = ExecutionEngine(
            result, retry_model=RetryModel(success_probability=0.53), seed=seed
        ).run()
        retries = {
            uid: tries for uid, tries in report.attempts.items() if tries > 1
        }
        terms = "".join(
            f" + I_{k}={extra}m" for k, extra in report.realized_terms.items()
        )
        print(
            f"  run {seed}: realized makespan {report.makespan}m "
            f"(scheduled {result.fixed_makespan}m{terms}); "
            f"retries: {retries or 'none'}"
        )


if __name__ == "__main__":
    main()
