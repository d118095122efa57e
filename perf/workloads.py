"""The four benchmark workloads: data, engine config, serve config, load.

Names are fixed (later issues cite them).  Each workload is a closed
loop of ``clients`` callers with zero think time; ``warmup`` is the
number of completions discarded before the measured window opens.

Only public builders are used: ``repro.workloads`` for data and request
generators, ``repro.core`` for the engine and ``repro.serve`` for the
ingress.  Engine configs go through :func:`make_config`, which drops
keyword names ``LTPGConfig`` no longer has, so the benchmark keeps
running (and says what it dropped) after a later PR shrinks the config.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable

from repro.core import LTPGConfig, LTPGEngine
from repro.serve import SizePolicy, make_policy
from repro.workloads import TpccMix, build_smallbank, build_tpcc, build_ycsb
from repro.workloads.tpcc import DELAYED_COLUMNS, HOT_TABLES, SPLIT_COLUMNS
from repro.workloads.ycsb import ycsb_delayed_columns

#: Requests are generated ``CHUNK`` at a time so the request stream is
#: the same prefix however many chunks a run ends up needing.
CHUNK = 8192

_TPCC_MARKINGS = dict(
    delayed_columns=DELAYED_COLUMNS,
    split_columns=SPLIT_COLUMNS,
    hot_tables=HOT_TABLES,
)


def make_config(**wanted: Any) -> tuple[LTPGConfig, list[str]]:
    """``LTPGConfig(**wanted)`` minus the keywords it no longer accepts.

    Returns the config and the sorted list of dropped names
    (``meta.config_dropped`` in the report)."""
    known = {f.name for f in dataclasses.fields(LTPGConfig)}
    dropped = sorted(k for k in wanted if k not in known)
    kept = {k: v for k, v in wanted.items() if k in known}
    return LTPGConfig(**kept), dropped


@dataclass(frozen=True)
class Sizes:
    """Everything that differs between the full benchmark and the
    seconds-long smoke run of the same workload."""

    #: keyword arguments for the workload's builder (table sizes)
    data: dict[str, Any]
    batch_size: int
    clients: int
    warmup: int
    #: commit/s the sandbox sustains even in a slow spell: peak_rss_mb is
    #: read once ``floor_tps * seconds`` transactions have committed in
    #: the window, so that it is the footprint of a fixed amount of work
    floor_tps: int
    #: builder arguments and lanes per batch of the serial-replay check
    verify_data: dict[str, Any]
    verify_lanes: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    builder: Callable[..., tuple]
    #: builder keywords that do not change with scale (mix, skew, ...)
    fixed_data: dict[str, Any]
    #: engine config keywords besides ``batch_size``
    config: dict[str, Any]
    #: ``policy(batch_size) -> BatchPolicy``
    policy: Callable[[int], Any]
    full: Sizes
    smoke: Sizes

    def sizes(self, scale: str) -> Sizes:
        if scale == "full":
            return self.full
        if scale == "smoke":
            return self.smoke
        raise ValueError(f"unknown scale {scale!r}; expected 'full' or 'smoke'")

    def build(self, data: dict[str, Any], seed: int) -> tuple:
        """(database, registry, generator), all seeded from ``seed``."""
        return self.builder(**data, **self.fixed_data, seed=seed)

    def engine(self, db: Any, registry: Any, batch_size: int) -> tuple[Any, list[str]]:
        config, dropped = make_config(batch_size=batch_size, **self.config)
        return LTPGEngine(db, registry, config), dropped


def _hybrid(batch_size: int) -> Any:
    # serve_run's defaults: hybrid policy, 200 us age bound
    return make_policy("hybrid", batch_size, max_wait_ns=200_000)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="tpcc_sat",
            why=(
                "The paper's headline shape (2^14 batch, NewOrder/Payment "
                "50/50, 64 warehouses) saturated: execute is the largest "
                "layer, inserts and delayed updates are live, retries moderate."
            ),
            builder=build_tpcc,
            fixed_data=dict(mix=TpccMix.neworder_percentage(50)),
            config=dict(batched_exec=True, **_TPCC_MARKINGS),
            policy=SizePolicy,
            full=Sizes(
                data=dict(warehouses=64, num_items=100_000),
                batch_size=16384,
                clients=32768,
                warmup=165_000,
                floor_tps=5000,
                verify_data=dict(warehouses=4, num_items=10_000),
                verify_lanes=2048,
            ),
            smoke=Sizes(
                data=dict(warehouses=4, num_items=2_000),
                batch_size=512,
                clients=1024,
                warmup=1024,
                floor_tps=500,
                verify_data=dict(warehouses=2, num_items=2_000),
                verify_lanes=256,
            ),
        ),
        Workload(
            name="tpcc_interactive",
            why=(
                "Same layers used the opposite way: out-of-the-box config "
                "(no batched_exec), 256 callers, hybrid cut, so hundreds of "
                "small batches; per-batch fixed cost and latency dominate."
            ),
            builder=build_tpcc,
            fixed_data=dict(mix=TpccMix.neworder_percentage(50)),
            config=dict(**_TPCC_MARKINGS),
            policy=_hybrid,
            full=Sizes(
                data=dict(warehouses=32, num_items=100_000),
                batch_size=4096,
                clients=256,
                warmup=10_000,
                floor_tps=4000,
                verify_data=dict(warehouses=4, num_items=10_000),
                verify_lanes=256,
            ),
            smoke=Sizes(
                data=dict(warehouses=4, num_items=2_000),
                batch_size=512,
                clients=64,
                warmup=256,
                floor_tps=500,
                verify_data=dict(warehouses=2, num_items=2_000),
                verify_lanes=64,
            ),
        ),
        Workload(
            name="smallbank_hot",
            why=(
                "Contention is what is measured: rows ~ batch size, uniform "
                "keys, ~2 attempts per commit; every layer's work per commit "
                "is doubled by retries and p99 is the retry tail."
            ),
            builder=build_smallbank,
            fixed_data=dict(zipf_alpha=0.0),
            config=dict(batched_exec=True),
            policy=SizePolicy,
            full=Sizes(
                data=dict(num_accounts=20_000),
                batch_size=16384,
                clients=32768,
                warmup=80_000,
                floor_tps=8000,
                verify_data=dict(num_accounts=20_000),
                verify_lanes=4096,
            ),
            smoke=Sizes(
                data=dict(num_accounts=1_000),
                batch_size=512,
                clients=1024,
                warmup=1024,
                floor_tps=500,
                verify_data=dict(num_accounts=1_000),
                verify_lanes=256,
            ),
        ),
        Workload(
            name="ycsb_read",
            why=(
                "Reads beside the other three's writes: one procedure, 10 "
                "point reads, 100 % commit, no writeback; per-request serve "
                "bookkeeping, assemble and the batch log dominate."
            ),
            builder=build_ycsb,
            fixed_data=dict(workload="c", zipf_alpha=2.5),
            config=dict(
                batched_exec=True,
                delayed_columns=ycsb_delayed_columns(),
                hot_tables=frozenset({"usertable"}),
            ),
            policy=SizePolicy,
            full=Sizes(
                data=dict(num_records=1_000_000),
                batch_size=16384,
                clients=32768,
                warmup=32768,
                floor_tps=15000,
                verify_data=dict(num_records=100_000),
                verify_lanes=4096,
            ),
            smoke=Sizes(
                data=dict(num_records=10_000),
                batch_size=512,
                clients=1024,
                warmup=1024,
                floor_tps=500,
                verify_data=dict(num_records=10_000),
                verify_lanes=256,
            ),
        ),
    )
}


def request_chunks(generator: Any, count: int) -> list[tuple[str, tuple]]:
    """At least ``count`` more ``(procedure, params)`` requests from
    ``generator``, in whole chunks of :data:`CHUNK`."""
    out: list[tuple[str, tuple]] = []
    while len(out) < count:
        out.extend(
            (t.procedure_name, t.params) for t in generator.make_batch(CHUNK)
        )
    return out
