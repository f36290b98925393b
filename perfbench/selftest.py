"""Fast self-test of the benchmark: every workload at a few steps.

    python3 perfbench/selftest.py

Runs each workload untraced and traced for a dozen steps, and checks that
every metric ``BENCHMARK.json`` names comes out once, with its unit and a
finite value, that the output checks pass on the real outputs, and that each
check rejects a corrupted output. Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import math
import sys

import run


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"selftest failed: {what}", file=sys.stderr)
        sys.exit(1)


def main() -> int:
    run.cap_blas_threads()
    run.import_package()
    import numpy as np

    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
           "BENCHMARK.json names every workload the benchmark runs")
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for trace in (0, 1):
        units = run.PER_LAYER if trace else run.END_TO_END
        expect(units == wanted[trace], f"--trace {trace} metrics match BENCHMARK.json")

    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result, details = run.measure(name, seed=7, seconds=0.1, trace=trace,
                                          steps=12, setups=2)
            where = f"{name} --trace {trace}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: result keys")
            expect({k: v["unit"] for k, v in result["metrics"].items()} == wanted[trace],
                   f"{where}: metric names and units")
            expect(all(math.isfinite(v["value"]) for v in result["metrics"].values()),
                   f"{where}: finite metric values")
            expect(result["correct"], f"{where}: output checks pass: {details['problems']}")
            expect(0 <= result["failed"] <= result["attempted"] and result["attempted"] > 0,
                   f"{where}: attempted and failed counts")
            if trace == 0:
                expect(all(result["metrics"][m]["value"] != 0 for m in wanted[0]),
                       f"{where}: no end-to-end metric is 0")
            print(f"selftest: {where} ok ({result['attempted']} ops, "
                  f"{result['failed']} failed)")

    rep = workloads.Rep()
    workloads.check_losses(rep, [2.5, float("nan")])
    expect(rep.problems != [], "a non-finite loss is caught")
    rep = workloads.Rep()
    workloads.check_cos2(rep, [0.5, 1.0 + 1e-12])
    expect(rep.problems != [], "a cos^2 above 1 is caught")
    one_ulp = np.nextafter(1.0, 2.0)
    expect(not workloads.same_bits([1.0, 2.0], [one_ulp, 2.0]),
           "a one-ulp change breaks a bit-exact round-trip")
    expect(not run._same_run(workloads.Rep(losses=[1.0, 2.0]),
                             workloads.Rep(losses=[1.0, float(np.nextafter(2.0, 3.0))])),
           "a one-ulp loss change breaks traced/untraced agreement")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
