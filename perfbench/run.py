"""Benchmark for adapterlab training, run from the root of a source checkout.

    python3 perfbench/run.py --workload lang_ortho --seed 3 --seconds 15 --trace 0

One process, one training run at a time (a closed loop), BLAS threads capped
at the number of CPUs this process may use. The package is imported from
``src/`` next to this directory and sees only inputs built here from
``--seed``.

``--trace 0`` sets up several times, warms up, then repeats the workload's
pipeline from a fresh model until ``--seconds`` have passed, and prints the
end-to-end metrics. ``--trace 1`` alternates untraced and traced
repetitions and prints per-layer metrics from the traced ones; its span file
goes to ``perfbench/out/``. Either way the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Lines before it record the environment and the sample counts.

End-to-end times are at reference speed (see ``clock.py``): each step and
evaluation batch is timed after a probe of the host's momentary speed and
divided by it. The raw times are printed beside them under ``samples.raw``.
The step percentiles and the evaluation rate take each step and evaluation
batch at its median time across the run's repetitions, which all work on
the same batches; the pipeline time is the median repetition's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))

N_SETUPS = 5
WARMUP_STEPS = 10
CHECK_STEPS = 8  # steps of the traced check inside an untraced run

END_TO_END = {
    "setup_s": "s",
    "train_step_ms_p50": "ms",
    "train_step_ms_p95": "ms",
    "train_tokens_per_s": "tokens/s",
    "final_main_loss": "nats",
    "final_ortho_cos2": "cos2",
    "eval_tokens_per_s": "tokens/s",
    "target_token_acc": "ratio",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_share": "ratio",
}

REPORTED_OPS = ("matmul", "add", "layer_norm", "softmax_rows", "embedding_lookup",
                "dropout", "cross_entropy", "cosine_sq_rows")

# per step of training unless the name says otherwise
PER_LAYER = {
    "synthlang.corpus_ms": "ms",
    "synthlang.relex_ms": "ms",
    "synthlang.task_ms": "ms",
    "synthlang.cipher_calls": "count",
    "training.batch_ms": "ms",
    "objectives.masking_ms": "ms",
    "training.tokens_per_step": "count",
    "objectives.skipped_sequences": "count",
    "training.step_self_ms": "ms",
    "encoder.encode_main_ms": "ms",
    "encoder.encode_ortho_ms": "ms",
    "encoder.head_ms": "ms",
    "objectives.main_loss_ms": "ms",
    "objectives.ortho_loss_ms": "ms",
    "autodiff.backward_main_ms": "ms",
    "autodiff.backward_ortho_ms": "ms",
    "autodiff.nodes_per_step": "count",
    "autodiff.recorded_nodes_per_step": "count",
    **{f"autodiff.op.{op}.{kind}": unit for op in REPORTED_OPS
       for kind, unit in (("calls", "count"), ("ms", "ms"), ("backward_ms", "ms"))},
    "optim.clip_ms": "ms",
    "optim.adam_main_ms": "ms",
    "optim.adam_ortho_ms": "ms",
    "optim.trainable_elems": "count",
    "adapters.forward_calls_per_step": "count",
    "adapters.swap_ms": "ms",
    "encoder.eval_encode_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "bytes",
    "checkpoint.adapter_roundtrip_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def cap_blas_threads() -> None:
    """Cap BLAS and OpenMP pools at the CPU count; must run before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)


def import_package() -> None:
    """Put ``src/`` first on the path and refuse any other copy of the package."""
    if not (SRC / "adapterlab" / "__init__.py").is_file():
        raise SystemExit(f"no adapterlab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import adapterlab

    if Path(adapterlab.__file__).resolve().parent != SRC / "adapterlab":
        raise SystemExit(f"adapterlab was imported from {adapterlab.__file__}, not {SRC}")


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "adapterlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def _same_run(a, b) -> bool:
    """Bit-for-bit equal losses and accuracy: repetitions of one run must agree."""
    return a.losses == b.losses and a.accuracy == b.accuracy


def _repeat_until(seconds: float, one) -> list:
    """Call ``one`` at least once, and again while another call fits in ``seconds``."""
    out = []
    start = time.perf_counter()
    while True:
        out.append(one())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(out) > seconds:
            return out


def _tally(reps) -> tuple[int, int, Counter, list]:
    failures = Counter(msg for rep in reps for msg in rep.failures)
    problems = sorted({p for rep in reps for p in rep.problems})
    return (sum(r.attempted for r in reps), sum(r.failed for r in reps),
            failures, problems)


def measure_end_to_end(wl, seed, seconds, workdir, steps, setups):
    import numpy as np

    from clock import slowness
    from tracing import Tracer, patched
    from workloads import LAST_STEPS

    setup_s, setup_ref_s = [], []
    for _ in range(setups):
        before = statistics.median(slowness() for _ in range(3))
        start = time.perf_counter()
        prep = wl.setup(seed)
        setup_s.append(time.perf_counter() - start)
        after = statistics.median(slowness() for _ in range(3))
        setup_ref_s.append(setup_s[-1] / ((before + after) / 2))
    wl.repeat(prep, min(WARMUP_STEPS, steps), workdir)
    reps = _repeat_until(seconds, lambda: wl.repeat(prep, steps, workdir))

    # the same pipeline under the tracer must not change a single loss bit
    tracer = Tracer()
    check_steps = min(CHECK_STEPS, steps)
    with patched(tracer.bindings()):
        traced = wl.repeat(prep, check_steps, workdir, tracer.span)

    attempted, failed, failures, problems = _tally(reps)
    problems = sorted(set(problems) | set(traced.problems))
    first = reps[0]
    if not all(_same_run(first, rep) for rep in reps[1:]):
        problems.append("repetitions of one run disagree")
    if traced.losses != first.losses[:check_steps]:
        problems.append("the traced run's main losses differ from the untraced run's")
    tokens = sum(sum(r.step_tokens) for r in reps)

    def timings(setup, step_lists, evals, walls):
        # every repetition runs the same steps and evaluation batches, so
        # one's median over the repetitions keeps its own cost and drops the
        # host's stalls, which strike different ones each time
        step_ms = 1000.0 * np.median(np.array(step_lists), axis=0)
        eval_s = np.median(np.array(evals), axis=0)
        return {
            "setup_s": statistics.median(setup),
            "train_step_ms_p50": float(np.percentile(step_ms, 50)),
            "train_step_ms_p95": float(np.percentile(step_ms, 95)),
            "train_tokens_per_s": tokens / sum(sum(r) for r in step_lists),
            "eval_tokens_per_s": first.eval_tokens / float(eval_s.sum()),
            "pipeline_s": statistics.median(walls),
        }
    metrics = timings(setup_ref_s, [r.step_ref_s for r in reps],
                      [r.eval_ref_s for r in reps], [r.wall_ref_s for r in reps])
    metrics.update({
        "final_main_loss": float(np.mean(first.losses[-LAST_STEPS:])),
        "final_ortho_cos2": first.ortho_cos2,
        "target_token_acc": first.accuracy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_share": 1.0 - failed / attempted,
    })
    slow = [f for r in reps for f in r.slowness]
    samples = {"setups": setups, "repetitions": len(reps),
               "train_steps": sum(len(r.step_s) for r in reps),
               "eval_batches": sum(r.eval_batches for r in reps),
               "probes": len(slow), "slowness_p50": statistics.median(slow),
               "raw": timings(setup_s, [r.step_s for r in reps],
                              [r.eval_s for r in reps], [r.wall_s for r in reps])}
    return metrics, attempted, failed, failures, problems, samples


def measure_traced(wl, seed, seconds, workdir, steps, trace_path):
    from tracing import Tracer, patched

    tracer = Tracer()
    with patched(tracer.bindings()):
        prep = wl.setup(seed, tracer.span)
    setup_counts = Counter(tracer.counts)
    wl.repeat(prep, min(WARMUP_STEPS, steps), workdir)

    def pair():
        plain = wl.repeat(prep, steps, workdir)
        with patched(tracer.bindings()):
            traced = wl.repeat(prep, steps, workdir, tracer.span)
        return plain, traced
    pairs = _repeat_until(seconds, pair)
    tracer.dump(trace_path)

    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    attempted, failed, failures, problems = _tally(plain + traced)
    if not all(_same_run(plain[0], rep) for rep in plain[1:]):
        problems.append("repetitions of one run disagree")
    if not all(_same_run(plain[0], rep) for rep in traced):
        problems.append("the traced run's main losses differ from the untraced run's")

    steps_done = tracer.counts["training.steps"]
    in_phase = tracer.totals_ms(within="training.phase")
    every = tracer.totals_ms()

    def per_step(name):
        return in_phase.get(name, (0, 0.0))[1] / steps_done

    def per_call(name):
        calls, ms = every.get(name, (0, 0.0))
        return ms / calls if calls else 0.0

    def count(name):
        return tracer.counts[name] / steps_done

    metrics = {
        "synthlang.corpus_ms": per_call("synthlang.corpus"),
        "synthlang.relex_ms": per_call("synthlang.relex"),
        "synthlang.task_ms": per_call("synthlang.task"),
        "synthlang.cipher_calls": setup_counts["synthlang.cipher_calls"],
        "training.batch_ms": per_step("training.batch"),
        "objectives.masking_ms": per_step("objectives.masking"),
        "training.tokens_per_step": count("training.tokens"),
        "objectives.skipped_sequences": count("objectives.skipped_sequences"),
        "training.step_self_ms": tracer.self_ms("training.phase") / steps_done,
        "encoder.encode_main_ms": per_step("encoder.encode_main"),
        "encoder.encode_ortho_ms": per_step("encoder.encode_ortho"),
        "encoder.head_ms": per_step("encoder.head"),
        "objectives.main_loss_ms": per_step("objectives.main_loss"),
        "objectives.ortho_loss_ms": per_step("objectives.ortho_loss"),
        "autodiff.backward_main_ms": per_step("autodiff.backward_main"),
        "autodiff.backward_ortho_ms": per_step("autodiff.backward_ortho"),
        "autodiff.nodes_per_step": count("autodiff.nodes"),
        "autodiff.recorded_nodes_per_step": count("autodiff.recorded_nodes"),
        "optim.clip_ms": per_step("optim.clip"),
        "optim.adam_main_ms": per_step("optim.adam_main"),
        "optim.adam_ortho_ms": per_step("optim.adam_ortho"),
        "optim.trainable_elems": tracer.gauges.get("optim.trainable_elems", 0),
        "adapters.forward_calls_per_step": count("adapters.forward_calls"),
        "adapters.swap_ms": per_call("adapters.swap"),
        "encoder.eval_encode_ms": per_call("encoder.eval_encode"),
        "checkpoint.save_ms": per_call("checkpoint.save"),
        "checkpoint.load_ms": per_call("checkpoint.load"),
        "checkpoint.bytes": traced[0].checkpoint_bytes,
        "checkpoint.adapter_roundtrip_ms": per_call("checkpoint.adapter_roundtrip"),
        "trace.overhead_ratio": statistics.median(t.wall_s for t in traced)
        / statistics.median(p.wall_s for p in plain),
    }
    for op in REPORTED_OPS:
        calls = in_phase.get(f"autodiff.op.{op}", (0, 0.0))[0]
        metrics[f"autodiff.op.{op}.calls"] = calls / steps_done
        metrics[f"autodiff.op.{op}.ms"] = per_step(f"autodiff.op.{op}")
        metrics[f"autodiff.op.{op}.backward_ms"] = per_step(f"autodiff.op.{op}.backward")
    samples = {"pairs": len(pairs), "traced_steps": steps_done,
               "spans": len(tracer.span_name), "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, attempted, failed, failures, problems, samples


def measure(workload: str, seed: int, seconds: float, trace: int,
            steps: int | None = None, setups: int = N_SETUPS) -> tuple[dict, dict]:
    """Run one workload; return the result object and the details behind it."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    steps = wl.steps if steps is None else steps
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if trace:
            trace_path = OUT / f"trace-{workload}-seed{seed}.json"
            found = measure_traced(wl, seed, seconds, Path(tmp), steps, trace_path)
            units = PER_LAYER
        else:
            found = measure_end_to_end(wl, seed, seconds, Path(tmp), steps, setups)
            units = END_TO_END
    values, attempted, failed, failures, problems, samples = found
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "steps_per_run": steps, "samples": samples,
               "failures": dict(failures), "problems": problems}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pretrain_mlm", "lang_ortho", "zero_shot_tag"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cap_blas_threads()
    import_package()
    env = environment()
    result, details = measure(args.workload, args.seed, args.seconds, args.trace)
    for problem in details["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    record = {"environment": env, "details": details, "result": result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"environment": env}))
    print(json.dumps({"details": details}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
