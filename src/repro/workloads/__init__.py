"""Benchmark workloads: TPC-C and YCSB, plus shared random helpers."""

from repro.workloads.rand import ZipfGenerator
from repro.workloads.smallbank import SmallBankGenerator, build_smallbank
from repro.workloads.tpcc import TpccGenerator, TpccMix, TpccScale, build_tpcc
from repro.workloads.ycsb import YcsbGenerator, YcsbWorkload, build_ycsb

__all__ = [
    "ZipfGenerator",
    "SmallBankGenerator",
    "build_smallbank",
    "TpccGenerator",
    "TpccMix",
    "TpccScale",
    "build_tpcc",
    "YcsbGenerator",
    "YcsbWorkload",
    "build_ycsb",
]
