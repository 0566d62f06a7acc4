"""The repository benchmark: six workloads, seven end-to-end numbers and a
traced per-layer ledger.  See ``perf/README.md``; the contract the driver
reads is ``BENCHMARK.json`` at the repository root."""
