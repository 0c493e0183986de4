"""Kernel-mode dispatch: ``reference`` vs the opt-in ``fast`` path.

The reference kernels in this package are written for auditability: their
shapes mirror the paper's pseudocode and the cost formulas charged against
them. :mod:`repro.kernels.fast` provides drop-in replacements tuned for
wall clock (lazier gathers, multi-kth ``np.partition``, introselect
interior selects), bound by one contract:

* **Identical values.** Every fast kernel returns bit-identical results
  (and, where order can leak into downstream pivot draws, identically
  *ordered* results) to its reference twin.
* **Identical charges.** Simulated costs always follow the reference
  cost formulas — the fast path changes how fast the host computes, never
  what the simulated machine is charged.

Selection: ``SelectionPlan(kernels="fast")`` per plan, or the
``REPRO_KERNELS`` environment variable as the process-wide default (how
CI runs the whole value suite under each mode). A kernel with no twin
(the multiway partition, among others) runs the same code in both modes.
"""

from __future__ import annotations

import os

from ..errors import ConfigurationError

__all__ = [
    "KERNELS_ENV_VAR",
    "KERNEL_MODES",
    "default_kernels_mode",
    "resolve_kernels",
]

#: Environment variable naming the process-wide default kernel mode.
KERNELS_ENV_VAR = "REPRO_KERNELS"

#: Valid kernel modes.
KERNEL_MODES = ("reference", "fast")


def default_kernels_mode() -> str:
    """``REPRO_KERNELS`` if set (validated), else ``"reference"``."""
    mode = os.environ.get(KERNELS_ENV_VAR, "").strip()
    if not mode:
        return "reference"
    if mode not in KERNEL_MODES:
        raise ConfigurationError(
            f"unknown kernel mode {mode!r} in ${KERNELS_ENV_VAR}; "
            f"available: {sorted(KERNEL_MODES)}"
        )
    return mode


def resolve_kernels(kernels: str | None) -> str:
    """Normalise ``None`` (env default / reference) or a mode name."""
    if kernels is None:
        return default_kernels_mode()
    if kernels not in KERNEL_MODES:
        raise ConfigurationError(
            f"unknown kernel mode {kernels!r}; "
            f"available: {sorted(KERNEL_MODES)}"
        )
    return kernels
