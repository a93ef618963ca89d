"""Device factories: how benchmark cells obtain their transistors.

A cell builder never constructs device models directly — it asks a
factory for "an NMOS of W x L".  Swapping the factory switches the whole
cell between:

* nominal VS / nominal BSIM evaluation (delay calibration),
* Monte-Carlo VS / Monte-Carlo BSIM (the paper's statistical runs).

Monte-Carlo factories return a *fresh, independent* batch of sampled
cards on every call, which is precisely the within-die mismatch model:
each transistor instance in the cell fluctuates independently, while the
sample axis ties instance k of sample b across the whole circuit.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import List, Optional

import numpy as np

from repro.devices.base import DeviceModel
from repro.devices.bsim.model import BSIMDevice
from repro.devices.vs.model import VSDevice
from repro.pipeline import Technology


class DeviceFactory(abc.ABC):
    """Supplies transistors to cell builders."""

    @abc.abstractmethod
    def __call__(self, polarity: str, w_nm: float, l_nm: float) -> DeviceModel:
        """Return a device model for a ``W x L`` transistor of *polarity*."""

    #: Batch shape the produced devices carry (``()`` for nominal).
    batch_shape: tuple = ()


class NominalDeviceFactory(DeviceFactory):
    """Nominal (variation-free) devices from a characterized technology."""

    def __init__(self, technology: Technology, model: str = "vs"):
        if model not in ("vs", "bsim"):
            raise ValueError(f"model must be 'vs' or 'bsim', got {model!r}")
        self.technology = technology
        self.model = model
        self.batch_shape = ()

    def __call__(self, polarity: str, w_nm: float, l_nm: float) -> DeviceModel:
        char = self.technology[polarity]
        if self.model == "vs":
            return VSDevice(char.vs_nominal.replace(w_nm=w_nm, l_nm=l_nm))
        return BSIMDevice(char.golden_nominal.replace(w_nm=w_nm, l_nm=l_nm))


class MonteCarloDeviceFactory(DeviceFactory):
    """Per-instance mismatch sampling over a shared Monte-Carlo axis.

    With ``interdie_sigma`` set (a ``{parameter: sigma}`` map per
    polarity, or one map for both), each Monte-Carlo sample additionally
    carries a die-level deviation shared by *every* device instance it
    receives — the Eq. (1) decomposition: global + local variation.
    Only supported for the VS model (the golden kit plays the role of
    within-die silicon in the paper's flow).
    """

    def __init__(
        self,
        technology: Technology,
        n_samples: int,
        rng: Optional[np.random.Generator] = None,
        model: str = "vs",
        seed: int = 0,
        interdie_sigma: Optional[dict] = None,
    ):
        if model not in ("vs", "bsim"):
            raise ValueError(f"model must be 'vs' or 'bsim', got {model!r}")
        if n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if interdie_sigma is not None and model != "vs":
            raise ValueError("inter-die sampling is implemented for the VS model")
        self.technology = technology
        self.n_samples = n_samples
        self.model = model
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.batch_shape = (n_samples,)
        # Stream state at construction, before any draw (including the
        # inter-die draw below): what replay() rewinds to.
        self._initial_rng_state = self.rng.bit_generator.state
        self._interdie_sigma = interdie_sigma

        self._interdie: dict = {}
        if interdie_sigma is not None:
            for polarity in ("nmos", "pmos"):
                sigma_map = interdie_sigma.get(polarity, interdie_sigma)
                if not isinstance(sigma_map, dict):
                    raise TypeError("interdie_sigma must map parameters to sigmas")
                # Drop polarity keys if a flat map was provided.
                sigma_map = {
                    k: v for k, v in sigma_map.items()
                    if k not in ("nmos", "pmos")
                }
                self._interdie[polarity] = technology[
                    polarity
                ].statistical.sample_interdie_offsets(
                    n_samples, self.rng, sigma_map
                )

    def __call__(self, polarity: str, w_nm: float, l_nm: float) -> DeviceModel:
        char = self.technology[polarity]
        if self.model == "vs":
            return char.statistical.sample_device(
                self.n_samples,
                self.rng,
                w_nm=w_nm,
                l_nm=l_nm,
                extra_deviations=self._interdie.get(polarity),
            )
        return char.golden_mismatch.sample_device(
            self.n_samples, self.rng, w_nm=w_nm, l_nm=l_nm
        )

    def replay(self) -> "MonteCarloDeviceFactory":
        """A fresh factory replaying this one's stream from the start.

        The replay rewinds to the construction-time generator state, so
        an identical device-request order re-draws the *identical*
        sampled devices — how the Fig. 6 leakage measurement reuses the
        delay run's dice inside one sharded work callable, where the
        seed that built the factory is not in scope.
        """
        rng = np.random.Generator(type(self.rng.bit_generator)())
        rng.bit_generator.state = self._initial_rng_state
        return MonteCarloDeviceFactory(
            self.technology,
            self.n_samples,
            rng=rng,
            model=self.model,
            interdie_sigma=self._interdie_sigma,
        )


def _concat_card_values(values, counts, name: str):
    """Concatenate one card field across member draws (sample axis first).

    Returns ``None`` when the field is a shared constant that needs no
    replacement.  Scalar values that differ across members are expanded
    to their member's sample count before concatenation — elementwise
    model arithmetic then reproduces each member's scalar-broadcast
    result bit for bit.
    """
    first = values[0]
    if not isinstance(first, (int, float, np.ndarray, np.floating, np.integer)):
        if any(v != first for v in values[1:]):
            raise ValueError(
                f"cannot coalesce card field {name!r}: "
                "non-numeric values differ across shards"
            )
        return None
    arrays = [np.asarray(v) for v in values]
    if all(a.ndim == 0 for a in arrays):
        scalar = arrays[0]
        if all(a == scalar for a in arrays[1:]):
            return None
    return np.concatenate(
        [
            np.broadcast_to(a, (n,) + a.shape[1:]) if a.ndim == 0 else a
            for a, n in zip(arrays, counts)
        ],
        axis=0,
    )


class CoalescedFactory(DeviceFactory):
    """Concatenates several Monte-Carlo factories along the sample axis.

    The cross-shard batching of the fast Newton path: each member keeps
    its own generator (the shard's stream), so per-member draws are
    bit-identical to the standalone per-shard run; every device request
    polls all members **in member order** and returns one batched device
    whose card fields are the members' draws concatenated along the
    Monte-Carlo axis.  Because device evaluation and the masked batched
    Newton solver are elementwise along that axis, rows
    ``[offset_i, offset_i + n_i)`` of any downstream metric equal member
    *i*'s standalone result bit for bit — the coalesced-wave determinism
    contract (ROADMAP "Conventions (PR 9)").
    """

    def __init__(self, members: List[DeviceFactory]):
        if not members:
            raise ValueError("need at least one member factory")
        self.members = list(members)
        self.counts = [int(m.n_samples) for m in self.members]
        self.n_samples = sum(self.counts)
        self.batch_shape = (self.n_samples,)

    def __call__(self, polarity: str, w_nm: float, l_nm: float) -> DeviceModel:
        devices = [m(polarity, w_nm, l_nm) for m in self.members]
        base = devices[0]
        changes = {}
        for field in dataclasses.fields(base.params):
            merged = _concat_card_values(
                [getattr(d.params, field.name) for d in devices],
                self.counts, field.name,
            )
            if merged is not None:
                changes[field.name] = merged
        return base.with_params(base.params.replace(**changes))

    def replay(self) -> "CoalescedFactory":
        """A fresh coalesced factory replaying every member's stream."""
        return CoalescedFactory([m.replay() for m in self.members])


class RecordingFactory(DeviceFactory):
    """Wraps a factory, remembering every device it hands out.

    The recorded devices are what :class:`ScalarReplayFactory` replays
    per sample — the foundation of the batched-vs-scalar equivalence
    tests and the batching ablation benchmark.
    """

    def __init__(self, inner: DeviceFactory):
        self.inner = inner
        self.batch_shape = inner.batch_shape
        self.devices: List[DeviceModel] = []

    def __call__(self, polarity: str, w_nm: float, l_nm: float) -> DeviceModel:
        device = self.inner(polarity, w_nm, l_nm)
        self.devices.append(device)
        return device


class CriticalDeviceFactory(DeviceFactory):
    """Substitutes one prepared device at a single factory-call index.

    The rare-event yield engine (:mod:`repro.stats.yield_engine`) varies
    ONE critical transistor — a batched device sampled under the shifted
    proposal — while every other transistor in the cell stays nominal,
    so the failure probability is conditioned on that single device's
    local variation.  *call_index* counts the cell builder's device
    requests in order (the 6T SRAM draws pu_l, pd_l, pu_r, pd_r, ax_l,
    ax_r, so the left pull-down is index 1; the DFF's master pass
    transistor M1 is index 0).
    """

    def __init__(
        self, inner: DeviceFactory, critical: DeviceModel, call_index: int
    ):
        if call_index < 0:
            raise ValueError("call_index must be non-negative")
        self.inner = inner
        self.critical = critical
        self.call_index = int(call_index)
        self.calls = 0
        self.batch_shape = tuple(critical.params.batch_shape)

    def __call__(self, polarity: str, w_nm: float, l_nm: float) -> DeviceModel:
        index = self.calls
        self.calls += 1
        if index != self.call_index:
            return self.inner(polarity, w_nm, l_nm)
        if self.critical.polarity.name.lower() != polarity.lower():
            raise ValueError(
                f"critical device is {self.critical.polarity.name} but "
                f"call {index} requests {polarity!r} — wrong call_index?"
            )
        return self.critical


class ScalarReplayFactory(DeviceFactory):
    """Replays one scalar slice of previously recorded batched devices.

    Every array-valued card field is indexed at *sample_index* along the
    Monte-Carlo axis, so the k-th replayed circuit carries exactly the
    devices sample k saw in the batched run.  Device call order must
    match the recorded cell builder (guaranteed when the same builder
    runs with both factories).
    """

    batch_shape = ()

    def __init__(self, devices: List[DeviceModel], sample_index: int):
        self.devices = devices
        self.sample_index = sample_index
        self.call_index = 0

    def __call__(self, polarity: str, w_nm: float, l_nm: float) -> DeviceModel:
        base = self.devices[self.call_index]
        self.call_index += 1
        params = base.params
        changes = {}
        for field in dataclasses.fields(params):
            value = getattr(params, field.name)
            if isinstance(value, np.ndarray) and value.ndim:
                changes[field.name] = float(value[self.sample_index])
        return base.with_params(params.replace(**changes))
