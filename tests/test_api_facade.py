"""``repro.api`` — the blessed facade — and the package import paths."""

import warnings

import pytest

import repro.api as api
from repro.api import (
    Negotiator,
    ObsConfig,
    ResilienceConfig,
    VOToolkit,
)
from repro.services.resilience import ResilientTransport
from repro.services.transport import LatencyModel, SimTransport

# Every repro.* symbol the examples/ scripts and the CLI import must be
# importable from the facade — the "one blessed surface" criterion.
EXAMPLE_AND_CLI_SYMBOLS = [
    # examples/
    "negotiate", "build_aircraft_scenario", "render_ascii", "render_dot",
    "build_fig1_workflow", "TrustSequence", "Strategy",
    "VirtualOrganization", "ROLE_DESIGN_PORTAL", "CachingNegotiator",
    "eager_negotiate", "CredentialAuthority", "Sensitivity", "XProfile",
    "run_fault_demo", "parse_policies", "parse_policy",
    "policies_to_xacml", "ConceptMapper", "ontology_to_owl",
    "aerospace_reference_ontology", "match_ontologies",
    "overlapping_ontologies", "ViolationKind", "ServiceDescription",
    # CLI
    "TNWebService", "FaultInjector", "FaultPlan", "SimClock",
    "LatencyModel", "SimTransport", "formation_workload",
    # the observability entry point rides along as a namespace
    "obs",
]


class TestSurface:
    @pytest.mark.parametrize("name", EXAMPLE_AND_CLI_SYMBOLS)
    def test_symbol_available(self, name):
        assert hasattr(api, name), f"repro.api.{name} missing"

    def test_all_is_complete_and_resolves(self):
        for name in api.__all__:
            assert hasattr(api, name)
        for name in EXAMPLE_AND_CLI_SYMBOLS:
            assert name in api.__all__

    def test_facade_classes_exported(self):
        for name in ("Negotiator", "VOToolkit", "ObsConfig",
                     "ResilienceConfig"):
            assert name in api.__all__


class TestConfigTrio:
    def test_kw_only_construction(self):
        with pytest.raises(TypeError):
            ResilienceConfig(3)
        with pytest.raises(TypeError):
            ObsConfig(True)

    def test_scenario_config_kw_only(self):
        from repro.api import ScenarioConfig

        with pytest.raises(TypeError):
            ScenarioConfig(42)
        config = ScenarioConfig(seed=42, rounds=5, agents=6, seats=2)
        assert config.seed == 42

    def test_workload_configs_kw_only(self):
        from repro.api import (
            IsolationConfig,
            MarketConfig,
            MatrixConfig,
            ScarcityConfig,
            SoakConfig,
        )

        for config_type in (MarketConfig, MatrixConfig, ScarcityConfig,
                            IsolationConfig, SoakConfig):
            with pytest.raises(TypeError):
                config_type(42)

    def test_resilience_config_maps_to_policies(self):
        config = ResilienceConfig(
            max_attempts=7, failure_threshold=2, deadline_ms=None,
        )
        assert config.retry_policy().max_attempts == 7
        assert config.breaker_policy().failure_threshold == 2
        wrapped = config.wrap(SimTransport(model=LatencyModel()))
        assert isinstance(wrapped, ResilientTransport)
        assert wrapped.deadline_ms is None

    @pytest.mark.parametrize("name, value", [
        ("max_attempts", 0),
        ("base_backoff_ms", -500.0),
        ("failure_threshold", 0),
        ("reset_timeout_ms", -1.0),
    ])
    def test_resilience_config_rejects_unusable_policies(self, name, value):
        with pytest.raises(ValueError, match=name):
            ResilienceConfig(**{name: value})


class TestVOToolkit:
    def test_kw_only(self):
        with pytest.raises(TypeError):
            VOToolkit(LatencyModel())

    def test_bare_stack(self):
        toolkit = VOToolkit()
        assert toolkit.transport is toolkit.base_transport
        assert toolkit.fault_injector is None
        assert toolkit.resilient_transport is None
        assert toolkit.clock is toolkit.base_transport.base_clock

    def test_full_stack_order(self):
        from repro.api import FaultPlan

        toolkit = VOToolkit(
            fault_plan=FaultPlan(specs=[]),
            resilience=ResilienceConfig(max_attempts=2),
        )
        # top: resilient -> fault injector -> base transport
        assert toolkit.transport is toolkit.resilient_transport
        assert toolkit.resilient_transport.inner is toolkit.fault_injector
        assert toolkit.fault_injector.inner is toolkit.base_transport

    def test_latency_and_transport_conflict(self):
        with pytest.raises(ValueError):
            VOToolkit(
                latency=LatencyModel(),
                transport=SimTransport(model=LatencyModel()),
            )


class TestNegotiator:
    def test_kw_only(self):
        with pytest.raises(TypeError):
            Negotiator(None)

    def test_negotiates_and_caches(self, agent_factory, infn,
                                    shared_keypair, other_keypair):
        from datetime import datetime

        from repro.api import SequenceCache

        requester = agent_factory(
            "Req",
            [infn.issue("Qual", "Req", shared_keypair.fingerprint,
                        {}, datetime(2009, 10, 26))],
            "Qual <- DELIV",
            shared_keypair,
        )
        controller = agent_factory(
            "Ctl", [], "RES <- Qual", other_keypair,
        )
        at = datetime(2010, 3, 1)
        plain = Negotiator().negotiate(requester, controller, "RES", at=at)
        assert plain.success

        cache = SequenceCache()
        cached = Negotiator(cache=cache)
        assert cached.negotiate(requester, controller, "RES", at=at).success
        assert cached.negotiate(requester, controller, "RES", at=at).success
        assert cache.hits >= 1


class TestDeprecationShims:
    def test_canonical_paths_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.faults.plan import FaultPlan  # noqa: F401
            from repro.services.clock import SimClock  # noqa: F401
            from repro.services.tn_service import TNWebService  # noqa: F401

    def test_unknown_attribute_still_raises(self):
        import repro.services as services

        with pytest.raises(AttributeError):
            services.NoSuchThing
