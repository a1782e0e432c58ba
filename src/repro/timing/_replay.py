"""Backend-name resolution for the scheduler replay engine.

The :class:`~repro.timing.scheduler.RuntimeEvaluator` compiles a circuit's
gate list into integer-indexed operations and replays them thousands of
times during hill-climbing fine tuning.  Two implementations of that replay
exist under one *bit-identical* contract: ``python``, the always-available
reference loop in :mod:`repro.timing.scheduler`, and ``native``, a small C
kernel built on demand (its build shim and array plumbing live in
:mod:`repro.timing._native`).  This module only resolves a backend request
to one of them — from an explicit name, the ``REPRO_SCHEDULER_BACKEND``
environment variable, and (for ``"auto"``) whether the kernel builds — and
registers the names in ``SCHEDULER_BACKENDS``.

``numpy`` stays an accepted name so saved run configs, shard plans and
environments that set it keep working; it resolves to ``python``.
"""

from __future__ import annotations

import os

from repro.exceptions import ReproError
from repro.timing import _native

#: Environment variable consulted when a backend request is ``"auto"``.
BACKEND_ENV_VAR = "REPRO_SCHEDULER_BACKEND"

#: Accepted backend names (``numpy`` is an alias of ``python``).
BACKEND_CHOICES = ("auto", "python", "numpy", "native")


def resolve_backend(requested: str = "auto") -> str:
    """Resolve a backend request to ``"python"`` or ``"native"``.

    ``"auto"`` first defers to the :data:`BACKEND_ENV_VAR` environment
    variable (which may itself say ``auto``); a still-unresolved ``auto``
    picks ``native`` when the kernel is (or can be) built, else ``python``.
    ``"numpy"`` is an alias of ``"python"``.  Both resolutions are
    bit-identical by contract, so ``auto`` never changes any output — only
    wall time.

    An explicit ``"native"`` request (argument or environment variable)
    raises when the kernel is unavailable — silently falling back would
    hide a misconfigured deployment; ``auto`` degrades silently instead.
    """
    if requested not in BACKEND_CHOICES:
        raise ReproError(
            f"unknown scheduler backend {requested!r}; "
            f"choose one of {BACKEND_CHOICES}"
        )
    if requested == "auto":
        from_env = os.environ.get(BACKEND_ENV_VAR, "").strip()
        if from_env:
            if from_env not in BACKEND_CHOICES:
                raise ReproError(
                    f"invalid {BACKEND_ENV_VAR}={from_env!r}; "
                    f"choose one of {BACKEND_CHOICES}"
                )
            requested = from_env
    if requested == "numpy":
        return "python"
    if requested == "auto":
        return "native" if _native.available() else "python"
    if requested == "native" and not _native.available():
        raise ReproError(
            "the native scheduler backend was requested but the kernel is "
            f"unavailable ({_native.unavailable_reason()}); "
            "use backend='auto' to fall back silently"
        )
    return requested


# String-addressable backend registry (see repro.registry): building an
# entry resolves the request to a concrete backend name, so e.g.
# SCHEDULER_BACKENDS.build("auto") returns "native" or "python".
from functools import partial as _partial

from repro.registry import SCHEDULER_BACKENDS

SCHEDULER_BACKENDS.add(
    "auto", resolve_backend,
    description="defer to REPRO_SCHEDULER_BACKEND, then pick native "
                "when its kernel builds, else python",
)
SCHEDULER_BACKENDS.add(
    "python", _partial(resolve_backend, "python"),
    description="pure-Python reference evaluation loop",
)
SCHEDULER_BACKENDS.add(
    "numpy", _partial(resolve_backend, "numpy"),
    description="alias of python (kept so saved configs still resolve)",
)
SCHEDULER_BACKENDS.add(
    "native", _partial(resolve_backend, "native"),
    description="compiled C replay kernel (built on demand, needs a C "
                "compiler at first use)",
)
