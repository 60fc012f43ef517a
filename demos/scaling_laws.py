"""Shot-noise versus Heisenberg scaling of the frequency uncertainty.

Monte Carlo estimate of sigma(dw-hat) at the half-fringe operating point
for L = 1, 2, 4, 8 ions and both protocols, noise-free. The unentangled
ensemble improves as 1/sqrt(L) (projection noise averages down); the GHZ
register improves as 1/L (the fringe is L times steeper while a parity
shot carries the same unit variance). Points and fitted log-log slopes go
to out/scaling_laws.csv.
"""

from pathlib import Path

from ionramsey import Protocol, scan_scaling, theory_sigma
from ionramsey.records import write_table_csv

L_VALUES = [1, 2, 4, 8]
TRIALS = 10_000
SEED = 42
OUT = Path(__file__).parent / "out"


def main() -> None:
    print(f"{TRIALS} trials per point, T_R = 1 s, seed {SEED}")
    report = scan_scaling(L_VALUES, trials=TRIALS, seed=SEED)
    print(f"{'protocol':>9} {'L':>2} {'sigma':>12} {'theory':>12} {'ratio':>7}")
    for p in report.points:
        print(
            f"{p.protocol:>9} {p.n_ions:>2} {p.sigma_measured:>12.4e} "
            f"{p.sigma_theory:>12.4e} {p.ratio:>7.3f}"
        )
    for protocol, ideal in (("standard", -0.5), ("ghz", -1.0)):
        slope = report.slopes[protocol]
        err = report.slope_sigma[protocol]
        print(f"{protocol}: slope {slope:+.4f} +- {err:.4f} (ideal {ideal:+.1f})")

    OUT.mkdir(exist_ok=True)
    path = OUT / "scaling_laws.csv"
    rows = [
        (p.protocol, p.n_ions, p.sigma_measured, p.sigma_theory, p.ratio)
        for p in report.points
    ]
    write_table_csv(
        path,
        ("protocol", "n_ions", "sigma_measured", "sigma_theory", "ratio"),
        rows,
        meta={
            "trials": TRIALS,
            "seed": SEED,
            "slope_standard": report.slopes["standard"],
            "slope_ghz": report.slopes["ghz"],
        },
    )
    print(f"\nwrote {path}")
    gain = theory_sigma(Protocol.STANDARD, 8, 1.0, TRIALS) / theory_sigma(
        Protocol.GHZ_PARITY, 8, 1.0, TRIALS
    )
    print(f"at L=8 the entangled protocol is {gain:.2f}x more precise per unit time")


if __name__ == "__main__":
    main()
