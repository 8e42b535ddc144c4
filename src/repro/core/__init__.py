"""Deca's core: lifetime-based memory management (paper §4, §5).

This package is the paper's contribution proper, assembled from the
substrates:

* :mod:`repro.core.plan` — the per-container decision (§4.2–§4.3): one
  :class:`ContainerPlan` carries the verdict, its evidence and the record
  codec every reader and writer of the container goes through;
* :mod:`repro.core.optimizer` — the hybrid runtime optimizer (Appendix A):
  intercepts each dataset/shuffle as jobs materialize it, runs the UDT
  classification (Algorithms 1–4), resolves symbolic sizes with runtime
  bindings, and emits the container plans that the engine executes.

The container lifetimes of §4.2 are executed by
:class:`~repro.jvm.objects.Lifetime` groups and
:meth:`~repro.memory.page.PageGroup.reclaim`; the shared-object rules of
§4.3.3 by the per-container plan: each container that holds the objects
is planned on its own, so none shares another's page group and each
group's one owner reclaims it.
"""

# Only the plan is re-exported: it sits below the engine (analysis and
# memory are all it imports), while the optimizer imports
# ``repro.spark`` — which imports the plan.
from .plan import ContainerPlan, StorageStrategy

__all__ = ["ContainerPlan", "StorageStrategy"]
