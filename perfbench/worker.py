"""One cold run of a workload, in a fresh interpreter.

Usage (from the driver, with the run directory as working directory and
PYTHONPATH pointing at the checkout's ``src``):

    python3 worker.py setup     # import the CLI, record when that finished
    python3 worker.py run       # ... then run plan.json untraced
    python3 worker.py trace     # ... then run plan.json with spans recorded

The import of ``logdop.cli`` comes first so that the recorded set-up end
covers exactly interpreter start plus that import.  The result goes to
``result.json`` (and, traced, ``spans.json``/``spans.bin``) in the working
directory; the commands' own stdout and stderr are the worker's.
"""

import sys
import time

import logdop.cli

SETUP_DONE = time.monotonic()

import json  # noqa: E402  (after the set-up mark on purpose)
import resource  # noqa: E402
import traceback  # noqa: E402


def _cells(matrix) -> int:
    # the augmented [M | diag(p^m)] input of a Smith form is R x (C + R)
    return matrix.rows * (matrix.cols + matrix.rows)


def _h1_key(args, kwargs) -> list:
    return [args[0], args[1], args[2] if len(args) > 2 else kwargs.get("m", 0)]


def _text_bytes(result) -> int:
    return len(result.encode("utf-8")) if isinstance(result, str) else 0


def instrument(tracer) -> None:
    """Wrap each traced public function wherever the package can look it up.

    Module-level functions are replaced at every ``logdop`` module attribute
    bound to them, because importers such as ``engine`` and ``lifting`` hold
    their own names for ``q_d_matrix`` and friends.  Methods are replaced on
    the class itself, which every instance and importer shares.
    """
    from logdop import (cache, calculus, cli, engine, lifting, linalg,
                        localdata, serialize, tables)

    modules = [m for name, m in sys.modules.items()
               if name == "logdop" or name.startswith("logdop.")]

    def patch(module, attr_name, span, attr=None):
        original = getattr(module, attr_name)
        traced = tracer.wrap(span, original, attr)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def patch_method(cls, method, span, attr=None):
        setattr(cls, method, tracer.wrap(span, vars(cls)[method], attr))

    patch_method(linalg.CokernelSolver, "__init__", "linalg.snf_tracked",
                 lambda a, kw, r: _cells(a[1]))
    patch_method(linalg.CokernelSolver, "solve", "linalg.solve")
    patch_method(linalg.CokernelSolver, "element_order_exponent", "linalg.element_order")
    patch_method(linalg.CokernelSolver, "kernel_basis", "linalg.kernel_basis")
    patch(linalg, "cokernel_invariants", "linalg.snf_untracked",
          lambda a, kw, r: _cells(a[0]))
    patch(linalg, "det", "linalg.det")
    patch(linalg, "rank_mod_p", "linalg.rank_mod_p")

    for name in ("coeff_a_level", "transform_term", "operator_to_laurent"):
        patch(calculus, name, f"calculus.{name}")
    for name in ("q_d_matrix", "operator_matrix", "local_data_operator",
                 "local_data_tensor"):
        patch(localdata, name, f"localdata.{name}")

    patch(engine, "h1_tensor", "engine.h1_tensor", lambda a, kw, r: _h1_key(a, kw))
    for name in ("verify_splitting", "lattice_order_check", "level_descent_diagnostic"):
        patch(engine, name, f"engine.{name}")
    for name in ("lift_by_solve", "lift_by_schedule", "correction_solver",
                 "sample_kernel_section"):
        patch(lifting, name, f"lifting.{name}")
    for name in ("compare_row", "load_golden"):
        patch(tables, name, f"tables.{name}")

    patch_method(cache.DiskCache, "get", "cache.get",
                 lambda a, kw, r: int(r is not None))
    patch_method(cache.DiskCache, "put", "cache.put")

    for name, value in list(vars(serialize).items()):
        if (callable(value) and not name.startswith("_")
                and getattr(value, "__module__", None) == serialize.__name__
                and not isinstance(value, type)):
            patch(serialize, name, f"serialize.{name}",
                  lambda a, kw, r: _text_bytes(r))

    # The CLI layer: parsing (cli.main's own time) and its helpers.  Each
    # command handler gets a span too, so that its own body, and the program
    # code it calls that no wrapper above covers, counts as unattributed.
    patch(cli, "main", "cli.main")
    for name in ("_guard", "_require_prime", "_install_cache", "_emit"):
        patch(cli, name, f"cli.{name}")
    for name, value in list(vars(cli).items()):
        if name.startswith("cmd_") and callable(value):
            patch(cli, name, "cli.command")


def run_plan(plan) -> list:
    """Run each argv through the CLI entry point; return the exit codes."""
    codes = []
    for argv in plan:
        try:
            code = logdop.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error is exit 1 in a shell; record it
            traceback.print_exc()
            code = 1
        codes.append(code)
    sys.stdout.flush()
    return codes


def main() -> None:
    mode = sys.argv[1]
    result = {"setup_done": SETUP_DONE}
    if mode != "setup":
        with open("plan.json") as fh:
            plan = json.load(fh)
        runner = run_plan
        tracer = None
        if mode == "trace":
            from spans import ROOT_SPAN, Tracer

            tracer = Tracer()
            instrument(tracer)
            runner = tracer.wrap(ROOT_SPAN, run_plan)
        t0 = time.perf_counter()
        codes = runner(plan)
        result["run_s"] = time.perf_counter() - t0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["exit_codes"] = codes
        if tracer is not None:
            tracer.save(".")
    with open("result.json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
