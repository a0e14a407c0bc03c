"""The public API surface of the ``repro`` package."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

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
            "repro.cluster",
            "repro.hardening",
            "repro.trust",
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


_IMPORT_EVERY_MODULE = """
import importlib, json, pkgutil, sys
before = {name.partition(".")[0] for name in sys.modules}
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
after = {name.partition(".")[0] for name in sys.modules}
print(json.dumps(sorted(after - before - set(sys.stdlib_module_names))))
"""


def test_package_needs_only_the_standard_library():
    """Importing every ``repro`` module loads no third-party package.

    The baseline is the fresh interpreter's own ``sys.modules``, since
    ``site`` hooks may preload third-party packages before ``repro``.
    """
    src = Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_EVERY_MODULE],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(result.stdout) == ["repro"]


_EVENT_LOOP_MODULES = ("asyncio", "ssl", "concurrent.futures")


@pytest.mark.parametrize("module", [
    "repro",
    "repro.api",
    "repro.cluster",
    "repro.scenario.workloads",
    "repro.services.tn_client",
    "repro.hardening",
])
def test_sync_entry_points_do_not_load_the_event_loop(module):
    """Only code that runs a loop imports ``asyncio``, so the sync stack
    pays neither its import time nor its memory (nor ``ssl``'s)."""
    src = Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    script = (
        "import importlib, json, sys\n"
        "before = set(sys.modules)\n"
        f"importlib.import_module({module!r})\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    loaded = set(json.loads(result.stdout))
    assert loaded.isdisjoint(_EVENT_LOOP_MODULES), sorted(
        loaded.intersection(_EVENT_LOOP_MODULES)
    )


def _repro_modules_loaded_by(statement: str) -> set[str]:
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    src = Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    script = (
        "import json, sys\n"
        f"{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "    if m == 'repro' or m.startswith('repro.'))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    return set(json.loads(result.stdout))


class TestImportFootprint:
    """Packages resolve their exports on first access, so importing a
    module loads what that module runs and not its whole package tree."""

    def test_import_repro_loads_only_the_root_package(self):
        assert _repro_modules_loaded_by("import repro") == {"repro"}

    def test_the_engine_loads_no_service_or_vo_layer(self):
        loaded = _repro_modules_loaded_by("import repro.negotiation.engine")
        assert "repro.negotiation.engine" in loaded
        outside = (
            "repro.vo", "repro.services", "repro.cluster", "repro.hardening",
            "repro.scenario", "repro.ontology", "repro.storage",
            "repro.obs.export", "repro.obs.audit",
        )
        assert sorted(
            module for module in loaded
            if any(module == p or module.startswith(p + ".") for p in outside)
        ) == []

    def test_cli_help_loads_only_the_cli(self):
        src = Path(repro.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "--help"],
            capture_output=True, text=True, env=env, check=True,
        )
        # Each line reads "import time: self | cumulative | name".
        imported = {
            line.rpartition("|")[2].strip()
            for line in result.stderr.splitlines()
            if line.startswith("import time:")
        }
        loaded = {
            name for name in imported
            if name == "repro" or name.startswith("repro.")
        }
        assert loaded <= {"repro", "repro.cli", "repro.__main__"}, sorted(
            loaded
        )

    @pytest.mark.parametrize("module", [
        "repro", "repro.api", "repro.cluster", "repro.credentials",
        "repro.crypto", "repro.hardening", "repro.negotiation", "repro.obs",
        "repro.ontology", "repro.perf", "repro.policy", "repro.scenario",
        "repro.storage", "repro.trust", "repro.vo", "repro.xmlutil",
    ])
    def test_dir_lists_every_export(self, module):
        package = importlib.import_module(module)
        assert set(package.__all__) <= set(dir(package))

    def test_a_lazy_export_is_the_defining_modules_object(self):
        from repro.credentials.credential import Credential
        import repro.credentials

        assert repro.Credential is Credential
        assert repro.credentials.Credential is Credential
        with pytest.raises(AttributeError, match="no attribute 'Nope'"):
            getattr(repro.credentials, "Nope")
