"""Named workload scenarios: a registry of trace-generator parameterizations.

The paper evaluates GFS on one synthetic workload family calibrated to its
production trace.  Real clusters see far more variety, so this module
exposes a *scenario library*: each :class:`Scenario` is a named, documented
parameterization of :class:`~repro.workloads.synthetic.SyntheticTraceGenerator`
(config-field overrides, an optional custom organization mix and an
optional heterogeneous fleet composition), runnable through the parallel
experiment engine and the CLI::

    python -m repro.experiments.cli sweep --scenario burst --workers 8

Built-in scenarios (see ``docs/workloads.md`` for the full catalog):

========== =============================================================
name       what it stresses
========== =============================================================
default    the paper's calibrated Table 3 mix (baseline for everything)
burst      synchronized arrival spikes every few hours (quota headroom)
diurnal    follow-the-sun org peaks + strong arrival modulation (GDE)
hetero     mixed A100/A800/H800/A10 fleet, model-agnostic tasks (PTS)
org_skew   one organization dominating demand (per-org fairness, GDE)
spot_heavy spot submission rivalling HP load (SQA admission control)
large_gang frequent 4-8 pod gangs (gang admission and preemption cost)
========== =============================================================

Chaos scenarios pair the default workload with a cluster-dynamics preset
(:mod:`repro.dynamics`, ``docs/reliability.md``): ``node_churn`` (random
failures + repairs), ``maintenance_wave`` (rolling graceful drains),
``spot_reclaim_storm`` (periodic abrupt capacity loss) and
``elastic_fleet`` (fleet grow/shrink).  Any scenario — including
``trace:<path>`` replays — can be combined with any dynamics preset via
``cli sweep --dynamics <name>``.

Register custom scenarios with :func:`register_scenario`; look one up with
:func:`get_scenario`; enumerate with :func:`scenario_names`.  Ingested
external traces join the library through ``trace:<path>`` refs (see
:mod:`repro.workloads.ingest` and ``docs/traces.md``)::

    python -m repro.experiments.cli sweep --scenario trace:philly.json.gz
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..cluster import Cluster, GPUModel, Node, make_nodes
from ..dynamics import DynamicsSpec, get_dynamics
from .organizations import OrganizationProfile, default_organizations
from .synthetic import SyntheticTraceGenerator, WorkloadConfig
from .trace import Trace

#: Builds the organization mix for a scenario: ``seed -> profiles``.
OrgBuilder = Callable[[int], List[OrganizationProfile]]


@dataclass(frozen=True)
class Scenario:
    """A named parameterization of the synthetic trace generator.

    ``overrides`` are :class:`WorkloadConfig` field overrides applied on
    top of the caller's base parameters (cluster size, duration, seed,
    spot scale).
    ``org_builder`` optionally replaces the default organization mix, and
    ``fleet_mix`` optionally replaces the homogeneous simulation cluster
    with a multi-model fleet (node fractions per GPU model).

    ``org_builder`` must be a module-level function (not a lambda or
    closure) so scenarios pickle into experiment-engine worker processes
    on every multiprocessing start method.
    """

    name: str
    summary: str
    overrides: Mapping[str, object] = field(default_factory=dict)
    org_builder: Optional[OrgBuilder] = None
    #: ``((GPUModel, node_fraction), ...)``; ``None`` keeps a homogeneous cluster
    fleet_mix: Optional[Tuple[Tuple[GPUModel, float], ...]] = None
    #: cluster dynamics attached to every run of this scenario (chaos
    #: scenarios); ``None`` keeps the fleet static
    dynamics: Optional[DynamicsSpec] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def build_config(
        self,
        cluster_gpus: float,
        duration_hours: float,
        spot_scale: float = 1.0,
        seed: int = 0,
        gpu_model: Optional[GPUModel] = GPUModel.A100,
        base_overrides: Optional[Mapping[str, object]] = None,
    ) -> WorkloadConfig:
        """Assemble the workload config for this scenario.

        Precedence (lowest to highest): base parameters, ``base_overrides``
        (e.g. an experiment scale's workload overrides), then the
        scenario's own ``overrides``.
        """
        kwargs: Dict[str, object] = {
            "cluster_gpus": cluster_gpus,
            "duration_hours": duration_hours,
            "spot_scale": spot_scale,
            "seed": seed,
            "gpu_model": gpu_model,
        }
        if base_overrides:
            kwargs.update(base_overrides)
        kwargs.update(self.overrides)
        # JSON round-trips (job specs, caches) turn tuples into lists.
        for key in ("gang_pod_range",):
            if key in kwargs and isinstance(kwargs[key], list):
                kwargs[key] = tuple(kwargs[key])
        return WorkloadConfig(**kwargs)

    def build_trace(
        self,
        cluster_gpus: float,
        duration_hours: float,
        spot_scale: float = 1.0,
        seed: int = 0,
        gpu_model: Optional[GPUModel] = GPUModel.A100,
        base_overrides: Optional[Mapping[str, object]] = None,
    ) -> Trace:
        """Generate a trace for this scenario (deterministic in ``seed``)."""
        config = self.build_config(
            cluster_gpus, duration_hours, spot_scale, seed, gpu_model, base_overrides
        )
        organizations = self.org_builder(seed) if self.org_builder else None
        trace = SyntheticTraceGenerator(config, organizations=organizations).generate()
        trace.metadata["scenario"] = self.name
        return trace

    def cache_descriptor(self, seed: int) -> Dict[str, object]:
        """The scenario's contribution to an engine cache key.

        Everything that can change simulated results must appear here:
        the overrides, the fleet mix and the organization mix
        materialised for ``seed``.  Subclasses that source tasks outside
        the synthetic generator (e.g. ingested trace replay) override
        this with their own content descriptor.
        """
        descriptor: Dict[str, object] = {
            "name": self.name,
            "overrides": dict(self.overrides),
            "fleet_mix": self.fleet_mix,
        }
        if self.org_builder is not None:
            descriptor["organizations"] = self.org_builder(seed)
        if self.dynamics is not None:
            # The fault schedule is a pure function of (spec, seed, node
            # ids); the seed and cluster size are already part of the
            # engine's cache payload, so the spec descriptor is all the
            # cache key needs to never serve stale results across
            # dynamics changes.
            descriptor["dynamics"] = self.dynamics.descriptor()
        return descriptor

    def build_cluster(
        self,
        num_nodes: int,
        gpus_per_node: int = 8,
        gpu_model: GPUModel = GPUModel.A100,
    ) -> Cluster:
        """Build the cluster this scenario runs on.

        Homogeneous by default; scenarios with a ``fleet_mix`` split the
        node budget across GPU models proportionally.  Exactly
        ``num_nodes`` nodes are built; every model gets at least one node
        whenever the budget allows (``num_nodes >= len(fleet_mix)``),
        models earlier in the mix winning ties on smaller clusters.
        """
        if not self.fleet_mix:
            return Cluster.homogeneous(num_nodes, gpus_per_node, gpu_model)
        nodes: List[Node] = []
        remaining = num_nodes
        mix = list(self.fleet_mix)
        for i, (model, fraction) in enumerate(mix):
            if remaining <= 0:
                break
            models_left = len(mix) - i - 1
            if models_left == 0:
                count = remaining
            else:
                # Proportional share, but never below one node and never so
                # many that later models are starved when nodes remain.
                count = max(1, int(round(num_nodes * fraction)))
                count = min(count, max(1, remaining - models_left))
            remaining -= count
            nodes.extend(
                make_nodes(
                    count,
                    model,
                    gpus_per_node=gpus_per_node,
                    cluster_label=self.name,
                    prefix=f"{model.value.lower()}-{self.name}",
                )
            )
        return Cluster(nodes)


# ----------------------------------------------------------------------
# Organization mixes used by the built-in scenarios
# ----------------------------------------------------------------------
def follow_the_sun_organizations(seed: int = 0) -> List[OrganizationProfile]:
    """Four organizations whose daily peaks are staggered around the clock.

    Models a cluster shared across timezones: each org keeps the default
    statistical profile but peaks in a different 14-hour window, so
    aggregate demand shifts through the day instead of peaking once.
    """
    windows = [(0, 14), (5, 19), (10, 24), (15, 29)]  # centres 7h/12h/17h/22h
    orgs = default_organizations(seed)
    return [
        replace(org, peak_hours=windows[i % len(windows)], diurnal_amplitude=org.diurnal_amplitude * 1.8)
        for i, org in enumerate(orgs)
    ]


def skewed_organizations(seed: int = 0) -> List[OrganizationProfile]:
    """One dominant organization plus a long tail of small ones.

    The lead org carries ~75% of demand with pronounced bursts; the
    remaining orgs shrink proportionally.  Stresses per-organization
    forecasting and quota fairness under concentration.
    """
    scales = [3.0, 0.5, 0.3, 0.2]
    orgs = default_organizations(seed)
    return [
        replace(
            org,
            base_demand=org.base_demand * scales[i % len(scales)],
            diurnal_amplitude=org.diurnal_amplitude * scales[i % len(scales)],
            burst_magnitude=org.burst_magnitude * scales[i % len(scales)],
        )
        for i, org in enumerate(orgs)
    ]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, replace_existing: bool = False) -> Scenario:
    """Add a scenario to the global registry (name must be unique)."""
    if scenario.name in _REGISTRY and not replace_existing:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name.

    ``trace:<path>`` refs resolve to a
    :class:`~repro.workloads.ingest.TraceScenario` replaying the ingested
    trace at ``<path>`` (a converted ``.json``/``.json.gz`` trace or a
    raw external log); everything else hits the registry.
    """
    if name.startswith("trace:"):
        from .ingest import trace_scenario

        return trace_scenario(name[len("trace:"):])
    key = name.lower().replace("-", "_")
    if key not in _REGISTRY:
        raise KeyError(f"unknown scenario {name!r}; expected one of {scenario_names()}")
    return _REGISTRY[key]


def scenario_names() -> List[str]:
    """Sorted names of all registered scenarios."""
    return sorted(_REGISTRY)


def iter_scenarios() -> Sequence[Scenario]:
    """All registered scenarios, sorted by name."""
    return [_REGISTRY[name] for name in scenario_names()]


# ----------------------------------------------------------------------
# Built-in scenarios
# ----------------------------------------------------------------------
DEFAULT_SCENARIO = register_scenario(
    Scenario(
        name="default",
        summary="Paper-calibrated workload: Table 3 size/gang mix, diurnal org demand.",
    )
)

BURST_SCENARIO = register_scenario(
    Scenario(
        name="burst",
        summary="Synchronized arrival spikes: every 6h one hour carries ~8x intensity.",
        overrides={
            "arrival_burst_period": 6,
            "arrival_burst_width": 1,
            "arrival_burst_multiplier": 8.0,
            "diurnal_arrival_amplitude": 0.15,
        },
    )
)

DIURNAL_SCENARIO = register_scenario(
    Scenario(
        name="diurnal",
        summary="Follow-the-sun: org peaks staggered around the clock, strong modulation.",
        overrides={"diurnal_arrival_amplitude": 0.85},
        org_builder=follow_the_sun_organizations,
    )
)

HETERO_SCENARIO = register_scenario(
    Scenario(
        name="hetero",
        summary="Heterogeneous fleet: A100/H800/A800/A10 mix, model-agnostic tasks.",
        overrides={"gpu_model": None},
        fleet_mix=(
            (GPUModel.A100, 0.50),
            (GPUModel.H800, 0.25),
            (GPUModel.A800, 0.125),
            (GPUModel.A10, 0.125),
        ),
    )
)

ORG_SKEW_SCENARIO = register_scenario(
    Scenario(
        name="org_skew",
        summary="One org carries ~75% of HP demand; stresses per-org forecasts/quota.",
        org_builder=skewed_organizations,
    )
)

SPOT_HEAVY_SCENARIO = register_scenario(
    Scenario(
        name="spot_heavy",
        summary="Spot submissions rival HP load; short spot jobs hammer admission.",
        overrides={
            "spot_target_utilization": 0.40,
            "hp_target_utilization": 0.45,
            "spot_median_runtime": 1800.0,
        },
    )
)

LARGE_GANG_SCENARIO = register_scenario(
    Scenario(
        name="large_gang",
        summary="Frequent 4-8 pod gangs in both classes; stresses gang placement.",
        overrides={
            "hp_gang_fraction": 0.35,
            "spot_gang_fraction": 0.50,
            "gang_pod_range": (4, 8),
        },
    )
)


# ----------------------------------------------------------------------
# Chaos scenarios: the default workload under cluster dynamics
# ----------------------------------------------------------------------
NODE_CHURN_SCENARIO = register_scenario(
    Scenario(
        name="node_churn",
        summary="Random node failures (50h MTBF, ~2h repairs) under the default mix.",
        dynamics=get_dynamics("node_churn"),
    )
)

MAINTENANCE_WAVE_SCENARIO = register_scenario(
    Scenario(
        name="maintenance_wave",
        summary="Rolling graceful drains: 1/8 of the fleet out for 3h every 12h.",
        dynamics=get_dynamics("maintenance_wave"),
    )
)

SPOT_RECLAIM_STORM_SCENARIO = register_scenario(
    Scenario(
        name="spot_reclaim_storm",
        summary="Abrupt reclamation of 25% of nodes every 8h, with heavier spot load.",
        overrides={"spot_target_utilization": 0.20},
        dynamics=get_dynamics("spot_reclaim_storm"),
    )
)

ELASTIC_FLEET_SCENARIO = register_scenario(
    Scenario(
        name="elastic_fleet",
        summary="Fleet starts at 75%, grows to 100% at 6h, retires 10% for good at 18h.",
        dynamics=get_dynamics("elastic_fleet"),
    )
)
