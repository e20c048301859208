"""The benchmarks: nine subsystem benches and the paper's figures, all
run by :mod:`repro.bench.runner`.

Each bench module exposes ``BENCH``, a :class:`~repro.bench.runner.Bench`
record; ``python -m repro.bench NAME...`` (or ``repro bench NAME...``)
runs it and writes ``BENCH_<name>.json``.  EXPERIMENTS.md records
measured-vs-paper shape for the figures.
"""
