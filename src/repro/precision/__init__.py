"""Multi-precision storage/compute subsystem.

The cost model of this library is bytes-dominated (tall-skinny BLAS on
a GPU roofline), which makes storage precision the single biggest
bandwidth lever: fp32 storage halves, bf16 storage quarters, every
panel's charged traffic.  This package makes precision a first-class
policy threaded through the whole stack:

* :mod:`repro.precision.dtypes` — storage specs (``fp64``/``fp32``/
  ``bf16``-emulated/``dd``), word sizes, container dtypes, quantizers;
* :mod:`repro.precision.policy` — :class:`PrecisionPolicy` (storage,
  accumulate, Gram) and the named-policy registry;
* :mod:`repro.precision.kernels` — mixed-precision orthogonalization:
  the dd-Gram BCGS-PIP pass and
  :class:`~repro.precision.kernels.MixedPrecisionTwoStageScheme`
  (imported lazily by consumers — not re-exported here, because it
  pulls in :mod:`repro.ortho` and this package must stay importable
  from the lowest layers).

Downstream: :class:`repro.distla.multivector.DistMultiVector` carries a
storage spec, the kernel engine accumulates reductions in fp64 over
low-precision shards (stacked and per-shard paths bit-identical per
dtype) and charges bytes at the storage word size,
``SolverOptions(precision=...)`` runs the whole basis at a policy, and
:func:`repro.krylov.ir.gmres_ir` wraps a low-precision inner solve in an
fp64 iterative-refinement loop.
"""

from repro.precision.dtypes import (
    ACCUMULATE_SPECS,
    GRAM_SPECS,
    STORAGE_SPECS,
    container_dtype,
    eps,
    quantize,
    round_bf16,
    validate_storage,
    word_bytes,
)
from repro.precision.policy import (
    POLICIES,
    PrecisionPolicy,
    list_policies,
    resolve_policy,
)

__all__ = [
    "STORAGE_SPECS",
    "ACCUMULATE_SPECS",
    "GRAM_SPECS",
    "word_bytes",
    "container_dtype",
    "eps",
    "quantize",
    "round_bf16",
    "validate_storage",
    "PrecisionPolicy",
    "POLICIES",
    "resolve_policy",
    "list_policies",
]
