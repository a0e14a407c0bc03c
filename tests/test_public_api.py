"""The public API surface of the ``repro`` package."""

import importlib

import pytest

import repro


class TestTopLevelApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.credentials",
            "repro.crypto",
            "repro.policy",
            "repro.ontology",
            "repro.negotiation",
            "repro.perf",
            "repro.storage",
            "repro.services",
            "repro.faults",
            "repro.vo",
            "repro.scenario",
            "repro.xmlutil",
            "repro.cli",
            "repro.obs",
            "repro.api",
        ],
    )
    def test_subpackage_alls_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name} missing"

    def test_errors_module_hierarchy(self):
        from repro import errors

        base = errors.ReproError
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) \
                    and obj is not base:
                assert issubclass(obj, base), (
                    f"{name} does not derive from ReproError"
                )

    def test_scenario_surface_pinned(self):
        """The open-world scenario surface is part of the facade."""
        import repro.api as api

        for name in (
            "Strategy",            # trust-negotiation strategy enum
            "AgentStrategy",       # market-haggling strategy enum
            "MarketConfig",
            "Trader",
            "run_market_round",
            "Population",
            "seat_name",
            "ScenarioConfig",
            "ScenarioReport",
            "RoundState",
            "run_scenario",
            "MatrixConfig",
            "two_agent_matrix",
            "ScarcityConfig",
            "scarcity_market",
            "IsolationConfig",
            "cheater_isolation",
        ):
            assert hasattr(api, name), f"repro.api.{name} missing"
            assert name in api.__all__, f"repro.api.{name} not in __all__"

    def test_strategy_names_stay_distinct(self):
        """`Strategy` (credential disclosure) and `AgentStrategy`
        (market haggling) must remain different enums."""
        import repro.api as api
        from repro.negotiation.strategies import Strategy
        from repro.scenario.market import AgentStrategy

        assert api.Strategy is Strategy
        assert api.AgentStrategy is AgentStrategy
        assert api.Strategy is not api.AgentStrategy

    def test_quickstart_docstring_example_runs(self):
        """The __init__ docstring quickstart must actually work."""
        from repro.scenario import build_aircraft_scenario
        from repro.scenario.aircraft import ROLE_DESIGN_PORTAL

        scenario = build_aircraft_scenario()
        edition = scenario.initiator_edition
        edition.create_vo(scenario.contract)
        edition.enable_trust_negotiation()
        outcome = edition.execute_join(
            scenario.app("AerospaceCo"), ROLE_DESIGN_PORTAL,
            with_negotiation=True,
        )
        assert outcome.joined
