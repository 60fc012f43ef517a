"""GHZ states through the motional bus: the paper's gate-level preparation.

The entangled states come from the Cirac–Zoller scheme: a pi/2 pulse on
ion 1, then a CNOT from ion 1 onto every other ion, each CNOT run through
the shared motional mode (map ion 1 onto the bus, CNOT from the bus onto
the target, map the bus back). This script prepares GHZ that way for
L = 2..6 on the dense register of ion qubits plus the bus, and checks
three things against it:

* its fidelity to (|dn...dn> + e^{i phi0}|up...up>)/sqrt(2), the Dicke
  state every Ramsey run starts from, expanded to the dense basis (with
  the bus in its ground state);
* its fidelity to the direct star circuit, whose CNOTs skip the bus;
* the purity of the bus's reduced state: 1 when the bus ends unentangled.

The table goes to out/bus_ghz.csv.
"""

from math import comb
from pathlib import Path

import numpy as np

from ionramsey.gates import bus_purity, new_register, prepare_ghz, prepare_ghz_via_bus
from ionramsey.records import write_table_csv
from ionramsey.register import dicke_ghz

PHI0 = 0.7  # the GHZ relative phase
L_VALUES = range(2, 7)
OUT = Path(__file__).parent / "out"


def dense_dicke(state) -> np.ndarray:
    """The 2**L amplitudes of a Dicke state: basis index x holds
    ``dicke[|x|] / sqrt(C(L, |x|))``, ion 1 the most significant bit."""
    n = state.n_ions
    popcount = np.array([bin(x).count("1") for x in range(1 << n)])
    scale = np.sqrt([comb(n, p) for p in range(n + 1)])
    return (state.dicke / scale)[popcount]


def with_bus_ground(ions: np.ndarray) -> np.ndarray:
    """An ion state times the bus in |dn>, the bus the least significant bit."""
    return np.stack([ions, np.zeros_like(ions)], axis=-1).reshape(-1)


def fidelity(target: np.ndarray, state: np.ndarray) -> float:
    return float(abs(np.vdot(target, state)) ** 2)


def main() -> None:
    ion = np.array([1.0, np.exp(1j * PHI0)]) / np.sqrt(2)
    print(f"GHZ through the bus, phi0 = {PHI0}")
    print(f"{'L':>2} {'gates':>5} {'F(Dicke GHZ)':>14} {'F(direct)':>14} {'bus purity':>12}")
    rows = []
    for n_ions in L_VALUES:
        reg, seq = prepare_ghz_via_bus(new_register(n_ions, has_bus=True), PHI0)
        direct, _ = prepare_ghz(new_register(n_ions), PHI0)
        f_dicke = fidelity(with_bus_ground(dense_dicke(dicke_ghz(n_ions, ion))), reg.amplitudes)
        f_direct = fidelity(with_bus_ground(direct.amplitudes), reg.amplitudes)
        purity = bus_purity(reg)
        print(f"{n_ions:>2} {len(seq.gates):>5} {f_dicke:>14.12f} {f_direct:>14.12f} {purity:>12.10f}")
        rows.append((n_ions, len(seq.gates), f_dicke, f_direct, purity))

    OUT.mkdir(exist_ok=True)
    path = OUT / "bus_ghz.csv"
    columns = ("n_ions", "gates", "fidelity_dicke_ghz", "fidelity_direct", "bus_purity")
    write_table_csv(path, columns, rows, meta={"phi0": PHI0})
    print(f"\nwrote {path}")
    print("each bus-mediated CNOT is three gates; the bus ends in |dn>, unentangled")


if __name__ == "__main__":
    main()
