"""Digests of every number the benchmark's studies compute, so that two
checkouts can be compared bitwise with one ``diff``.

    python3 tools/bitwise_digest.py [--root CHECKOUT] [--seeds 0 1] > digests.txt

For each seed the script sets up the ``static_solves``, ``timedep_solves``
and ``green_causal`` workloads of ``bench/studies.py`` as the benchmark does
and prints one line per solve and quantity: the SHA-256 of the dtype, shape
and bytes of its field, its ``energy_trace`` energy and flux, and its
``apply_operator`` result (and, for a Green operator, its residual).  It then
runs the ``CLI_RUNS`` of ``config_sweep`` through ``cli.main`` in a temporary
directory and prints each run's exit code and the digest of every file it
wrote.  The package and the studies are imported from ``--root`` (the
checkout holding this script by default) and used read-only; BLAS runs on
one thread, as in the benchmark.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402


def digest(array):
    """SHA-256 of an array's dtype, shape and bytes."""
    a = np.ascontiguousarray(array)
    h = hashlib.sha256(f"{a.dtype.str} {a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def solves(studies, solver, seed):
    """(label, system, field, Green source or None) of every solve of the
    three solve workloads, each field made only when the one before is done with."""
    static = studies.build("static_solves", seed, None, None)
    yield "static dirac", static.dirac, solver.solve(
        static.dirac, static.mit, h=static.dirac_h, grid=static.dirac_grid), None
    yield "static heat", static.heat, solver.solve(
        static.heat, static.robin, h=static.heat_h, grid=static.heat_grid), None
    timedep = studies.build("timedep_solves", seed, None, None)
    yield "timedep wave", timedep.wave, solver.solve(
        timedep.wave, timedep.neumann, h=timedep.wave_h, grid=timedep.wave_grid), None
    yield "timedep heat", timedep.heat, solver.solve(
        timedep.heat, timedep.robin, h=timedep.heat_h, grid=timedep.heat_grid), None
    green = studies.build("green_causal", seed, None, None)
    yield "green plus", green.adv, solver.green_plus(
        green.adv, green.plus_bcs, green.plus_f, green.adv_grid), green.plus_f
    yield "green minus", green.adv, solver.green_minus(
        green.adv, green.minus_bcs, green.minus_f, green.adv_grid), green.minus_f
    yield "green dirac", green.dirac, solver.solve(
        green.dirac, green.mit, h=green.dirac_h, grid=green.dirac_grid), None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout to import the package and bench/ from")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from friedrichs import solver
    import studies

    for seed in args.seeds:
        for label, sys_, fld, f in solves(studies, solver, seed):
            trace = solver.energy_trace(fld, sys_)
            print(f"seed {seed} {label} field {digest(fld.values)}")
            print(f"seed {seed} {label} energy {digest(trace.energy)}")
            print(f"seed {seed} {label} flux {digest(trace.flux)}")
            print(f"seed {seed} {label} apply_operator "
                  f"{digest(solver.apply_operator(sys_, fld).values)}")
            if f is not None:
                print(f"seed {seed} {label} residual "
                      f"{float(solver.green_residual(sys_, fld, f)).hex()}")
            del fld
        with tempfile.TemporaryDirectory() as tmp:
            sweep = studies.build("config_sweep", seed, Path(tmp), root)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                results = sweep.study()
            for (name, command, *_), (code, _), out in zip(studies.CLI_RUNS, results,
                                                          sweep.out_dirs):
                for path in sorted(out.iterdir()):
                    data = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"seed {seed} cli {command} {name} exit {code} {path.name} {data}")


if __name__ == "__main__":
    main()
