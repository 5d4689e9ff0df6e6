"""Multi-period dispatch with energy storage: arbitrage and peak shaving.

Time-expands a feeder over a 12-period day (morning ramp, evening peak),
attaches a battery, and solves the whole horizon with the distributed
solver-free ADMM.  The storage's state-of-charge chain is a single
*component spanning all periods* — the rest of the decomposition stays
period-local — which is exactly the adaptability argument of the paper's
component-wise strategy applied to the multi-period setting of its
comparison baseline [15].

Run:  python examples/multiperiod_storage.py
"""

import numpy as np

import repro
from repro.feeders import SyntheticFeederSpec, build_synthetic_feeder
from repro.multiperiod import (
    Storage,
    build_multiperiod_lp,
    decompose_multiperiod,
)
from repro.socp import ConicSolverFreeADMM
from repro.utils import format_table

#: A stylized daily shape: overnight valley, morning ramp, evening peak.
LOAD = np.array([0.55, 0.5, 0.55, 0.7, 0.9, 1.0, 1.05, 1.1, 1.3, 1.25, 0.95, 0.7])
PRICE = np.array([0.4, 0.35, 0.4, 0.6, 0.9, 1.0, 1.1, 1.3, 2.0, 1.8, 1.0, 0.6])


def main() -> None:
    net = build_synthetic_feeder(
        SyntheticFeederSpec(name="daily", n_buses=20, seed=11, load_density=0.8)
    )
    host = [b for b in net.buses.values() if b.n_phases == 3][1]
    battery = Storage(
        "battery",
        host.name,
        p_ch_max=0.08,
        p_dis_max=0.08,
        energy_max=0.25,
        soc0=0.12,
    )
    print(f"{net.summary()}  |  battery at {host.name}")

    prob = build_multiperiod_lp(net, LOAD, PRICE, [battery])
    print(
        f"time-expanded LP: {prob.n_vars} variables over {prob.n_periods} "
        f"periods, {len(prob.rows)} rows"
    )
    dec = decompose_multiperiod(prob)
    print(f"decomposition: {dec.n_components} components "
          f"(the battery's SOC chain is one component spanning the day)")

    res = ConicSolverFreeADMM(
        dec, repro.ADMMConfig(max_iter=300_000, record_history=False)
    ).solve()
    print(res.summary())
    ref = repro.solve_reference(prob.to_centralized())
    print(f"centralized reference: {ref.objective:.5f} "
          f"(gap {ref.compare_objective(res.objective):.1e})")

    # Compare against the storage-free dispatch.
    prob0 = build_multiperiod_lp(net, LOAD, PRICE)
    ref0 = repro.solve_reference(prob0.to_centralized())
    saving = (ref0.objective - res.objective) / ref0.objective * 100

    soc = prob.soc_trajectory(res.x, "battery")
    power = prob.storage_power(res.x, "battery")
    sub = prob.substation_power(res.x)
    sub0 = prob0.substation_power(ref0.x)
    rows = [
        [t, f"{LOAD[t]:.2f}", f"{PRICE[t]:.2f}", f"{power[t]*1e3:+.1f}",
         f"{soc[t+1]:.3f}", f"{sub[t]*1e3:.1f}", f"{sub0[t]*1e3:.1f}"]
        for t in range(prob.n_periods)
    ]
    print(
        format_table(
            ["t", "load x", "price x", "battery [mpu]", "SOC [puh]",
             "substation [mpu]", "(no ESS)"],
            rows,
            title="daily dispatch (positive battery power = discharging)",
        )
    )
    print(
        f"\nenergy-cost saving from the battery: {saving:.2f}%  |  "
        f"peak substation draw: {sub.max()*1e3:.1f} vs {sub0.max()*1e3:.1f} mpu"
    )
    assert res.converged


if __name__ == "__main__":
    main()
