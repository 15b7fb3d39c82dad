"""Kernel selection: the ``kernels=`` surface shared by the whole stack.

A :class:`KernelSet` bundles the host-side tree kernels (Morton keys,
octree construction, MAC traversal).  There is one set, ``numpy``:
tree construction and traversal are the vectorised routines in
:mod:`repro.core.{morton,octree,traversal}`, and every interaction-list
sweep is evaluated by :meth:`ForceBackend.eval_lists` in one call per
sweep, which bottoms out in the compiled list walk of
:mod:`repro.core.kernels.cnative` when available and in the per-sink
reference loop of the base class when not.

Every layer that builds forces -- :class:`~repro.core.treecode.TreeCode`,
:class:`~repro.cosmo.periodic_tree.PeriodicTreeCode`,
:class:`~repro.sim.simulation.Simulation`,
:func:`repro.sim.recipes.build_force`, the serve ``JobSpec``, and the
CLI ``--kernels`` flag -- accepts the same ``kernels=`` value: a set
name or a :class:`KernelSet`.  ``None``, ``"numpy"`` and ``"python"``
(the name of the retired per-sink set, still accepted so stored job
specs and scripts resolve) all give the one set.  Unknown names raise
:class:`ValueError` listing the valid names, which the CLI maps to
exit 2 and the service to HTTP 400.

This module also re-exports the force-backend layer
(:class:`ForceBackend`, :class:`Float64Backend`,
:func:`pairwise_accpot`, ...) so historical ``repro.core.kernels``
imports keep working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Union

from ..morton import bounding_cube, morton_keys
from ..octree import build_octree
from ..traversal import build_interaction_lists
from .backend import (DEFAULT_TILE, BackendCaps, Float64Backend,
                      ForceBackend, pairwise_accpot,
                      self_potential_correction)

__all__ = [
    "KernelSet", "resolve_kernels", "kernel_names",
    # force-backend layer (historical flat-module surface)
    "ForceBackend", "Float64Backend", "BackendCaps", "pairwise_accpot",
    "self_potential_correction", "DEFAULT_TILE",
]


@dataclass(frozen=True)
class KernelSet:
    """A named bundle of host kernels.

    ``morton_keys`` / ``bounding_cube`` / ``build_tree`` / ``traverse``
    are the host-computation kernels (the paper's tree-construction and
    tree-traversal terms of the time model).  Lists are always
    evaluated in whole CSR sweeps through
    :meth:`ForceBackend.eval_lists`, which ``batched`` records.
    """

    #: every set evaluates whole CSR sweeps through ``eval_lists``
    batched: ClassVar[bool] = True

    name: str
    description: str = ""
    morton_keys: Callable = field(default=morton_keys, repr=False)
    bounding_cube: Callable = field(default=bounding_cube, repr=False)
    build_tree: Callable = field(default=build_octree, repr=False)
    traverse: Callable = field(default=build_interaction_lists, repr=False)


_NUMPY = KernelSet(
    name="numpy",
    description="CSR list-walk evaluation (compiled fast path with the "
                "per-sink reference loop as fallback)",
)

#: accepted names; ``python`` names the retired per-sink set and
#: resolves to the one set
_NAMES = {"numpy": _NUMPY, "python": _NUMPY}


def kernel_names() -> tuple:
    """The accepted set names, sorted."""
    return tuple(sorted(_NAMES))


def resolve_kernels(kernels: Union[str, KernelSet, None]) -> KernelSet:
    """Resolve a ``kernels=`` value to a :class:`KernelSet`.

    ``None`` means the default set; a :class:`KernelSet` passes
    through; a string is looked up by name.  Unknown names raise
    :class:`ValueError` naming the valid choices -- every entry point
    funnels bad values through here so the CLI (exit 2) and the service
    (HTTP 400) reject them uniformly.
    """
    if kernels is None:
        return _NUMPY
    if isinstance(kernels, KernelSet):
        return kernels
    if isinstance(kernels, str):
        try:
            return _NAMES[kernels]
        except KeyError:
            raise ValueError(
                f"unknown kernels {kernels!r} (choose from "
                f"{', '.join(kernel_names())})") from None
    raise ValueError(f"kernels must be a name or KernelSet, "
                     f"got {type(kernels).__name__}")
