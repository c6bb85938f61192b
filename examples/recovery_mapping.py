"""Required-time recovery: area/power at unchanged worst delay.

Demonstrates the multi-round mapping engine on Table-3 circuits:

1. map delay-optimal (round 0) and with two area-recovery rounds, comparing
   area at the (guaranteed unchanged) worst delay;
2. inspect the per-round trajectory recorded in the
   :class:`~repro.synthesis.mapper.MappingResult`.

Run with:  python examples/recovery_mapping.py
"""

from repro.bench.registry import benchmark_by_name
from repro.core import LogicFamily, build_library
from repro.flow import run_flow
from repro.synthesis import map_rounds
from repro.synthesis.matcher import matcher_for

BENCHES = ("t481", "dalu", "C1908", "C6288")


def recovery_comparison() -> None:
    print(f"{'benchmark':<9} {'family':<18} {'area r0':>9} {'area r2':>9} "
          f"{'saved':>7} {'delay':>8}")
    for name in BENCHES:
        aig = run_flow("resyn2rs", benchmark_by_name(name).build()).aig
        for family in (LogicFamily.TG_STATIC, LogicFamily.TG_PSEUDO, LogicFamily.CMOS):
            library = build_library(family)
            result = map_rounds(
                aig, library, matcher=matcher_for(library),
                objective="delay", rounds=2,
            )
            round0, final = result.rounds[0], result.final
            saved = (1.0 - final.area / round0.area) * 100 if round0.area else 0.0
            assert final.normalized_delay <= round0.normalized_delay + 1e-9
            print(f"{name:<9} {library.name:<18} {round0.area:>9.1f} "
                  f"{final.area:>9.1f} {saved:>6.1f}% "
                  f"{final.normalized_delay:>8.2f}")


def round_trajectory() -> None:
    aig = run_flow("resyn2rs", benchmark_by_name("dalu").build()).aig
    library = build_library(LogicFamily.CMOS)
    result = map_rounds(
        aig, library, matcher=matcher_for(library), objective="delay", rounds=3
    )
    print("\ndalu / cmos-static round trajectory (objective=delay, recovery=area):")
    for index, (mapped, kept) in enumerate(zip(result.rounds, result.accepted)):
        tag = "kept" if kept else "rejected"
        print(f"  round {index}: area {mapped.area:8.1f}  "
              f"delay {mapped.normalized_delay:7.2f}  slack "
              f"{mapped.worst_slack:6.3f}  [{tag}]")


if __name__ == "__main__":
    recovery_comparison()
    round_trajectory()
