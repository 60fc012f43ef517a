"""Harmonic fingerprint of an imperfectly prepared GHZ state.

A perfect L-ion GHZ register shows a single fringe harmonic at L * dw.
Admixing a symmetric p-excitation component splits weight into other
harmonics: the ideal parity readout only couples excitation numbers
summing to L, so a p = 1 admixture at L = 3 leaves the L-th harmonic
reduced to 1/(1+eps^2) with nothing at p = 1 or 2 -- the signature that
the error is a coherent admixture rather than plain contrast loss.

The script synthesizes the scan once into data/imperfect_ghz_fringe.csv
(the bundled dataset; regenerate it by running this file) and then fits
the harmonic model back out of the file, as `ionramsey fourier` would.
"""

import csv
from pathlib import Path

import numpy as np

from ionramsey import (
    ImperfectionSpec,
    RamseyConfig,
    expected_signal,
    flag_large_admixture,
    fourier_decompose,
)
from ionramsey.records import write_table_csv

N_IONS = 3
EPSILON = 0.3
DELTA_OMEGA = 0.5
DATA = Path(__file__).parent / "data"
DATASET = DATA / "imperfect_ghz_fringe.csv"


def generate_dataset() -> None:
    spec = ImperfectionSpec(epsilon={1: EPSILON})
    cfg = RamseyConfig(
        n_ions=N_IONS,
        t_ramsey=1.0,
        omega_r=DELTA_OMEGA,
        omega_0=0.0,
        imperfection=spec,
    )
    period = 2.0 * np.pi / DELTA_OMEGA
    t_grid = period * np.arange(1, 129) / 128.0
    signal = expected_signal(cfg, t_ramsey=t_grid)
    DATA.mkdir(exist_ok=True)
    write_table_csv(
        DATASET,
        ("t_ramsey", "signal"),
        zip(t_grid, signal),
        meta={
            "delta_omega": DELTA_OMEGA,
            "epsilon_p1": EPSILON,
            "n_ions": N_IONS,
            "protocol": "ghz parity readout, expectation mode",
        },
    )


def load_dataset() -> tuple[np.ndarray, np.ndarray]:
    t_vals, s_vals = [], []
    with DATASET.open() as fh:
        for row in csv.reader(line for line in fh if not line.startswith("#")):
            if row[0] == "t_ramsey":
                continue
            t_vals.append(float(row[0]))
            s_vals.append(float(row[1]))
    return np.array(t_vals), np.array(s_vals)


def main() -> None:
    generate_dataset()
    print(f"wrote {DATASET}")
    t_grid, signal = load_dataset()
    fit = fourier_decompose(t_grid, signal, N_IONS, DELTA_OMEGA)

    print(f"\nL = {N_IONS}, p = 1 admixture amplitude eps = {EPSILON}")
    print(f"{'p':>2} {'C_p':>10} {'xi_p':>8}")
    for p in range(1, N_IONS + 1):
        c, xi = fit.c[p - 1], fit.xi[p - 1]
        print(f"{p:>2} {c:>10.6f} {xi:>8.3f}")
    print(f"residual rms {fit.residual:.2e}")
    expected = 1.0 / (1.0 + EPSILON**2)
    print(f"selection rule: C_3 = 1/(1+eps^2) = {expected:.6f}, C_1 = C_2 = 0")
    print(f"large-admixture flag: {flag_large_admixture(fit)}")
    print(
        "\nsame decomposition via the CLI:\n"
        "  ionramsey fourier --config cfg.ini --out out/  with\n"
        f"  [fourier] input={DATASET.name} n_ions={N_IONS} delta_omega={DELTA_OMEGA}"
    )


if __name__ == "__main__":
    main()
