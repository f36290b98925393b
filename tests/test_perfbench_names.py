"""The benchmark in ``perfbench/`` still finds every name it uses.

Each workload sets up at seed 3 and runs a two-step pipeline under the
tracer, which rebinds the package functions the per-layer metrics time. A
change that removes or renames something the benchmark imports, constructs
or rebinds fails here, not only in ``python3 perfbench/selftest.py``, which
tier-1 runs too. Each training step must reach the rebound main loss and
head once, for the sequence classification loss too, which no workload
trains: a loss or head bound where the tracer cannot see it would read 0 ms.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from adapterlab import training
from adapterlab.adapters import (
    PHASE_TASK,
    TASK,
    AdapterConfig,
    AdapterStack,
    init_adapter_stack_slot,
)
from adapterlab.encoder import Encoder, EncoderConfig
from adapterlab.synthlang import (
    SyntheticLanguageSpec,
    build_vocab,
    corpus_to_ids,
    gen_seq_task,
    generate_corpus,
)
from adapterlab.training import PhaseConfig

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("clock", "tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import tracing
    import workloads

    return tracing, workloads


def test_every_workload_runs_traced(bench, tmp_path):
    tracing, workloads = bench
    for name, workload in workloads.WORKLOADS.items():
        prep = workload.setup(3)
        tracer = tracing.Tracer()
        with tracing.patched(tracer.bindings()):
            rep = workload.repeat(prep, 2, tmp_path, tracer.span)
        assert (name, rep.failed, rep.problems) == (name, 0, [])
        assert (name, *loss_and_head_spans(tracer)) == (name, 2, 2)


def loss_and_head_spans(tracer):
    """How many main-loss and head spans the tracer recorded inside training phases."""
    totals = tracer.totals_ms(within="training.phase")
    return tuple(totals.get(span, (0, 0.0))[0]
                 for span in ("objectives.main_loss", "encoder.head"))


def test_a_traced_seq_cls_phase_times_its_loss_and_head(bench):
    tracing, _ = bench
    lines = generate_corpus(200, n_words=40, n_classes=4, seed=0)
    vocab = build_vocab(lines)
    dataset = gen_seq_task(corpus_to_ids(lines, vocab), SyntheticLanguageSpec("src"),
                           vocab, 20, "train", 1)
    cfg = PhaseConfig(phase=PHASE_TASK, main_loss="seq_cls", ortho=True, steps=2,
                      batch_size=4, seed=3)
    runs = []
    for traced in (False, True):
        enc = Encoder(EncoderConfig(vocab=vocab.size, hidden=16, num_heads=2, ffn=24,
                                    max_len=32), seed=0)
        stack = AdapterStack(2)
        stack.fill(TASK, init_adapter_stack_slot(AdapterConfig(dim=4, kind=TASK), 16, 2, 1))
        stack.register(enc.params)
        enc.ensure_cls_head(dataset.num_classes)
        tracer = tracing.Tracer()
        with tracing.patched(tracer.bindings() if traced else []):
            runs.append(training.run_phase(enc, stack, cfg, dataset=dataset).log_lines)
    assert runs[0] == runs[1]
    assert loss_and_head_spans(tracer) == (2, 2)


def test_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
