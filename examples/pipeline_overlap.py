"""Batch-to-batch pipeline execution (paper SectionV-E).

Run:  python examples/pipeline_overlap.py

Processes the same stream of TPC-C batches serially and pipelined
(transfers of batch n+1 overlapping kernels of batch n on separate
simulated CUDA streams) and compares makespans.  ``pipelined=True`` in
the config is the whole switch: the engine picks its three streams and
its retry delay from it.  Also shows the cost: aborted transactions
must wait two batches before retrying.
"""

from __future__ import annotations

from repro.bench import ltpg_config, steady_state_run, tpcc_bench

BATCHES = 12


def main() -> None:
    results = {}
    for mode in ("serial", "pipelined"):
        bench = tpcc_bench(8, neworder_pct=50, scale=16.0)
        config = ltpg_config(bench.batch_size, pipelined=(mode == "pipelined"))
        engine = bench.engine(config)
        r = steady_state_run(engine, bench.generator, bench.batch_size, BATCHES)
        results[mode] = (engine.device.elapsed_ns(), r, engine.retry_delay)

    serial_ns, serial_r, _ = results["serial"]
    pipe_ns, pipe_r, pipe_delay = results["pipelined"]
    print(f"{BATCHES} batches of {serial_r.run.batches[0].num_txns} transactions\n")
    print(f"serial    makespan: {serial_ns / 1e6:7.3f} ms  "
          f"({serial_r.tps / 1e6:.2f} M TPS)")
    print(f"pipelined makespan: {pipe_ns / 1e6:7.3f} ms  "
          f"({pipe_r.tps / 1e6:.2f} M TPS)")
    gain = serial_ns / pipe_ns - 1
    print(f"\noverlap gain: {gain:.1%}  (paper reports 10-15%)")
    print(f"trade-off: aborts retry {pipe_delay} batches later")


if __name__ == "__main__":
    main()
