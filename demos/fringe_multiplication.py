"""Parity fringes oscillate L times faster than a single ion's fringe.

A GHZ register accumulates detuning phase on all L ions at once, so the
parity readout traces cos(L * dw * T_R) while an unentangled Ramsey fringe
traces cos(dw * T_R). This script scans the Ramsey time at fixed detuning
for L = 1..4, fits each fringe frequency, and writes the scans to
out/fringe_multiplication.csv for plotting (columns: t_ramsey then one
signal column per L).
"""

from pathlib import Path

import numpy as np

from ionramsey import RamseyConfig, expected_signal, fit_fringe_frequency
from ionramsey.records import write_table_csv

DELTA_OMEGA = 0.4  # rad/s detuning from resonance
L_VALUES = (1, 2, 3, 4)
OUT = Path(__file__).parent / "out"


def main() -> None:
    t_grid = 2.0 * np.pi / DELTA_OMEGA * np.arange(1, 129) / 128.0
    signals = {}
    print(f"detuning dw = {DELTA_OMEGA} rad/s, scanning T_R up to {t_grid[-1]:.2f} s")
    print(f"{'L':>2} {'fitted freq':>12} {'L*dw':>8} {'rel error':>10}")
    for n_ions in L_VALUES:
        cfg = RamseyConfig(
            n_ions=n_ions,
            t_ramsey=1.0,
            omega_r=DELTA_OMEGA,
            omega_0=0.0,
        )
        signal = expected_signal(cfg, t_ramsey=t_grid)
        fit = fit_fringe_frequency(t_grid, signal)
        expected = n_ions * DELTA_OMEGA
        rel = abs(fit.frequency - expected) / expected
        print(f"{n_ions:>2} {fit.frequency:>12.8f} {expected:>8.2f} {rel:>10.2e}")
        signals[n_ions] = signal

    OUT.mkdir(exist_ok=True)
    path = OUT / "fringe_multiplication.csv"
    columns = ("t_ramsey",) + tuple(f"signal_L{ln}" for ln in L_VALUES)
    rows = [
        (t, *(signals[ln][i] for ln in L_VALUES)) for i, t in enumerate(t_grid)
    ]
    write_table_csv(path, columns, rows, meta={"delta_omega": DELTA_OMEGA})
    print(f"\nwrote {path}")
    print("an L-ion GHZ register packs L fringes into one single-ion period")


if __name__ == "__main__":
    main()
