"""Run the CLI sweeps behind one of the paper's figures.

Usage: ``python scripts/figures.py FIGURE [--out-dir DIR] [sweep flags...]``

``FIGURES`` maps each figure to its sweeps, {CSV stem: ``kicked-ising``
arguments}.  Other flags are appended to every sweep of the figure, so the
last value wins (``--periods 20000 --jobs 2`` overrides the table); then
``--out DIR/<stem>.csv``.  Each sweep runs through ``kicked_ising.cli.main``.

* ``dynamics``: P(nT) and per-site sz series of a polarized L = 8 chain around
  JT = pi; away from it the even-period envelope decays, at JT = pi it stays near one.
* ``lifetime``: the first-crossing time of the even-period return probability
  peaks at JT = pi, symmetric about it (L = 11), and grows roughly exponentially
  with L until the 1e5-period horizon censors it (JT = 0.9 pi); about a second.
* ``phase_map``: window-averaged even-period return on a (JT, eps) grid at L = 8;
  near one close to JT = pi at small eps, toward the ergodic floor elsewhere.
* ``spectrum``: gap statistics, exact anchor-pair counts, the time-reflection
  residual and quasi-energy dumps at JT = pi (paired) and at a melted point
  (no pairing, O(1) residual); the Fourier peak sits at half the drive frequency.
* ``lifetime_reach``: the lifetime against L = 6..32 at JT = 0.9 pi over 1e7 pairs, from
  the closed-form stream; it grows up to L = 15, is censored for L = 16..30 and falls to
  203323 pairs at L = 32.
* ``pairing_reach``: the pairing statistics against L = 6..24 at JT = pi from the
  free-fermion levels; exact pairs at L = 2 (mod 4), a ratio that grows with L at
  L = 0 (mod 4), and no anchored pairs at odd L.
"""

import argparse
import sys
from pathlib import Path

from kicked_ising import cli

_SPECTRUM = "spectrum -L 4,6,8,10 --dump-spectra --jobs 2"

FIGURES = {
    "dynamics": {
        "dynamics": "evolve -L 8 --jt-over-pi 0.5,0.9,1.0 --epsilon-over-pi 0.1 --periods 2000",
    },
    "lifetime": {
        "lifetime_vs_jt": "lifetime-scan -L 11 --jt-over-pi 0.75,0.85,0.95,1.0,1.05,1.25"
                          " --epsilon-over-pi 0.1 --periods 100000 --jobs 4",
        "lifetime_vs_length": "lifetime-scan -L 6:12 --jt-over-pi 0.9 --epsilon-over-pi 0.1"
                              " --periods 100000 --jobs 4",
    },
    "phase_map": {
        "phase_map": "phase-diagram -L 8 --jt-over-pi 0:2:21 --epsilon-over-pi 0.02:0.3:13"
                     " --periods 2000 --window 1000 --jobs 4",
    },
    "spectrum": {
        "spectrum_paired": f"{_SPECTRUM} --jt-over-pi 1.0 --epsilon-over-pi 0.1",
        "spectrum_melted": f"{_SPECTRUM} --jt-over-pi 0.2 --epsilon-over-pi 0.35",
        "fourier_peak": "fourier -L 8 --jt-over-pi 1.0 --epsilon-over-pi 0.07 --periods 512",
    },
    "lifetime_reach": {
        "lifetime_vs_length_32": "lifetime-scan -L 6:32 --jt-over-pi 0.9 --epsilon-over-pi 0.1"
                                 " --periods 20000000 --jobs 2",
    },
    "pairing_reach": {
        "pairing_vs_length": "spectrum -L 6:24 --jt-over-pi 1.0 --epsilon-over-pi 0.1",
    },
}


def sweeps(figure, out_dir, extra=()):
    """The CLI argument list of each sweep of ``figure``, in table order."""
    return [args.split() + list(extra) + ["--out", str(Path(out_dir) / f"{stem}.csv")]
            for stem, args in FIGURES[figure].items()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("figure", choices=FIGURES)
    parser.add_argument("--out-dir", type=Path, default=Path("results"),
                        help="directory for the CSV files (default ./results)")
    args, extra = parser.parse_known_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for sweep_argv in sweeps(args.figure, args.out_dir, extra):
        code = cli.main(sweep_argv)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
