"""Print, for no fault and for each of six faults in a rule or a path of the
evaluation, how many checks of each identity fail in one verify sweep:

    PYTHONPATH=<tree>/src python3 tools/fault_matrix.py

The sweep is ``SweepConfig(n_max=N_MAX, functions=FUNCTIONS)`` with every
order m. The faults:

* ``local-factor+1``: every class factor of p^s that
  ``transform._local_factors`` returns is one more;
* ``prime-power-sum+1``: ``ramanujan._prime_power_sum(p, e, t)`` returns one
  more at p = 3, e = t + 1;
* ``class-exponents+1``: ``numtheory._class_exponents`` gives t + 1 for the
  prime 2 when t < s;
* ``lattice-drops-last``: ``numtheory._lattice_terms`` drops its last term;
* ``negate-closed-form``: ``transform.exact_closed_form`` returns its value
  negated, and still None for a general f;
* ``offset-convolution``: ``transform.dft_exact_convolution`` returns one
  more.

This is gcdft's only fault table. ``run_under`` runs any ``SweepConfig``
under one fault: the fault replaces the rule at every gcdft module that holds
it, and every gcdft ``lru_cache`` is emptied before and after the sweep, so
no value computed under one fault reaches another.
A sweep that raises is shown with its error in place of the counts.
"""

import sys

from gcdft import numtheory, ramanujan, transform
from gcdft.verify import SweepConfig, SweepReport, run_verification

FUNCTIONS = ("sigma", "id", "J_3", "tau", "mu")
N_MAX = 24


def _class_exponents_plus_one(honest):
    def faulted(fac, m):
        exponents = honest(fac, m)
        return tuple(
            t + 1 if p == 2 and t < s else t for (p, s), t in zip(fac.factors, exponents)
        )

    return faulted


def _negated(honest):
    def faulted(f, n, m):
        value = honest(f, n, m)
        return None if value is None else -value

    return faulted


# name -> (module, rule, the faulted rule built from the honest one)
FAULTS = {
    "local-factor+1": (
        transform,
        "_local_factors",
        lambda honest: lambda f, p, s: tuple(v + 1 for v in honest(f, p, s)),
    ),
    "prime-power-sum+1": (
        ramanujan,
        "_prime_power_sum",
        lambda honest: lambda p, e, t: honest(p, e, t) + (p == 3 and e == t + 1),
    ),
    "class-exponents+1": (numtheory, "_class_exponents", _class_exponents_plus_one),
    "lattice-drops-last": (
        numtheory,
        "_lattice_terms",
        lambda honest: lambda fac, choices=None: honest(fac, choices)[:-1],
    ),
    "negate-closed-form": (transform, "exact_closed_form", _negated),
    "offset-convolution": (
        transform, "dft_exact_convolution", lambda honest: lambda f, n, m: honest(f, n, m) + 1
    ),
}


def _gcdft_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "gcdft"]


def _clear_caches() -> None:
    for module in _gcdft_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _replace(original, replacement) -> list:
    """Put ``replacement`` wherever a gcdft module holds ``original``; the
    (module, attribute) pairs replaced."""
    replaced = []
    for module in _gcdft_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced.append((module, attr))
    return replaced


def run_under(config: SweepConfig, fault: str | None = None) -> SweepReport:
    """``run_verification(config)`` with ``FAULTS[fault]`` in place at every
    gcdft module that holds the rule; every cache is emptied before the fault
    goes in and after the honest rule is put back, also when the sweep raises."""
    replaced = []
    _clear_caches()
    try:
        if fault is not None:
            module, rule, build = FAULTS[fault]
            honest = getattr(module, rule)
            replaced = _replace(honest, build(honest))
        return run_verification(config)
    finally:
        for module, attr in replaced:
            setattr(module, attr, honest)
        _clear_caches()


def sweep(n_max: int, fault: str | None = None) -> dict[str, tuple[int, int]] | str:
    """{identity: (failures, checks)} of the sweep under ``fault``, or the
    error it raised as ``"Name: message"``."""
    try:
        report = run_under(SweepConfig(n_max=n_max, functions=FUNCTIONS), fault)
    except Exception as error:  # a faulted rule may break a path outright
        return f"{type(error).__name__}: {error}"
    return {k: (failed, checks) for k, (checks, failed) in sorted(report.by_identity.items())}


def render(n_max: int) -> str:
    lines = [f"functions {', '.join(FUNCTIONS)}, n <= {n_max}, every m: failures/checks"]
    for fault in (None, *FAULTS):
        lines.append(f"fault {fault or 'none'}")
        counts = sweep(n_max, fault)
        if isinstance(counts, str):
            lines.append(f"  raised {counts}")
            continue
        width = max(map(len, counts))
        lines += [f"  {k.ljust(width)}  {failed}/{checks}" for k, (failed, checks) in counts.items()]
        failed, checks = map(sum, zip(*counts.values()))
        lines.append(f"  {'total'.ljust(width)}  {failed}/{checks}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(N_MAX))
