"""Host wall-clock: vectorized twins vs scalar lanes, per phase.

As a pytest benchmark this runs the scaled-down sweep like every other
harness.  Run directly — ``python benchmarks/bench_wallclock.py`` — it
reproduces the committed ``BENCH_wallclock.json`` at full scale
(batch sizes 2^10..2^16, TPC-C 50/50) and rewrites the file (~9 min).
``python benchmarks/bench_wallclock.py --small-batch`` re-measures only
the file's ``small_batch`` section (~1 min) and leaves the rest as is.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from repro.bench import wallclock  # noqa: E402


def test_wallclock_batched_speedup(benchmark, bench_scale, bench_rounds):
    from bench_util import run_once

    # Scaled batches are tiny; only sweep up to 2^14 to keep it quick.
    result = run_once(
        benchmark,
        lambda: wallclock.run(
            scale=bench_scale,
            rounds=bench_rounds,
            batch_sizes=tuple(2**k for k in (10, 12, 14)),
        ),
    )
    print()
    print(result.format())
    # At scaled-down batch sizes the per-batch times are sub-millisecond
    # and noisy, so only sanity-check that the sweep produced data; the
    # full-scale numbers are recorded in BENCH_wallclock.json and gated
    # by scripts/check_wallclock.py (schema, execute).
    assert all(
        result.seconds[path][b]["execute"] > 0
        for path in ("batched", "columnar")
        for b in result.seconds[path]
    )


def main(argv: list[str]) -> int:
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    out = os.path.join(root, "BENCH_wallclock.json")
    if argv == ["--small-batch"]:
        section = wallclock.refresh_small_batch(out, rounds=16)
        print(wallclock.format_small_batch(section))
        print(f"rewrote small_batch in {out}")
        return 0
    if argv:
        print(f"usage: {sys.argv[0]} [--small-batch]", file=sys.stderr)
        return 2
    # min-of-16: matches the execute gate's estimator
    # (scripts/check_wallclock.py execute).
    result = wallclock.run_and_write(scale=1.0, rounds=16, path=out)
    print(result.format())
    headline = wallclock.HEADLINE_BATCH
    if headline in result.seconds.get("batched", {}):
        print(
            f"\nbatched execute speedup over columnar at batch {headline}: "
            f"{result.batched_speedup(headline):.2f}x (informational: what "
            "the twins save over one procedure call per transaction)"
        )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
