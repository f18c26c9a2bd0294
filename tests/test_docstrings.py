"""Docstring enforcement for the experiment, telemetry and hot-path layers.

A lightweight pydocstyle-style gate: every module, public class and public
function in ``repro.experiments.*``, ``repro.telemetry``, ``repro.io``,
``repro.tracing.*``, ``repro.benchmarks``, the replay hot path
(``repro.cache.*``, ``repro.gpu.*``), the SoA engine
(``repro.engine.*``), the simulation service (``repro.service.*``) and the
analytical surrogate (``repro.surrogate.*``) must carry a docstring, and
the experiment modules' docstrings must state their job-decomposition
contract.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro.cache
import repro.engine
import repro.experiments
import repro.gpu
import repro.service
import repro.surrogate

CHECKED_MODULES = sorted(
    f"repro.experiments.{m.name}"
    for m in pkgutil.iter_modules(repro.experiments.__path__)
) + sorted(
    f"repro.cache.{m.name}"
    for m in pkgutil.iter_modules(repro.cache.__path__)
) + sorted(
    f"repro.gpu.{m.name}"
    for m in pkgutil.iter_modules(repro.gpu.__path__)
) + sorted(
    f"repro.engine.{m.name}"
    for m in pkgutil.iter_modules(repro.engine.__path__)
) + sorted(
    f"repro.service.{m.name}"
    for m in pkgutil.iter_modules(repro.service.__path__)
) + sorted(
    f"repro.surrogate.{m.name}"
    for m in pkgutil.iter_modules(repro.surrogate.__path__)
) + [
    "repro.experiments", "repro.cache", "repro.gpu", "repro.engine",
    "repro.service", "repro.surrogate",
    "repro.telemetry", "repro.io", "repro.benchmarks",
    "repro.tracing", "repro.tracing.collector", "repro.tracing.schema",
]

#: Modules decomposed into per-benchmark jobs must document the contract.
JOB_CONTRACT_MODULES = (
    "repro.experiments.fig3", "repro.experiments.fig4",
    "repro.experiments.fig5", "repro.experiments.fig6",
    "repro.experiments.fig8", "repro.experiments.regions",
    "repro.experiments.scaling", "repro.experiments.energy",
    "repro.experiments.variance", "repro.experiments.parallel",
)


def _public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exported from elsewhere; checked at its home
        yield name, obj


@pytest.mark.parametrize("module_name", CHECKED_MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), (
        f"{module_name} is missing a module docstring"
    )


@pytest.mark.parametrize("module_name", CHECKED_MODULES)
def test_public_members_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    missing = []
    for name, obj in _public_members(module):
        if not (obj.__doc__ and obj.__doc__.strip()):
            missing.append(name)
        if inspect.isclass(obj):
            for m_name, member in vars(obj).items():
                if m_name.startswith("_") or not inspect.isfunction(member):
                    continue
                if not (member.__doc__ and member.__doc__.strip()):
                    missing.append(f"{name}.{m_name}")
    assert not missing, (
        f"{module_name}: missing docstrings on {sorted(missing)}"
    )


@pytest.mark.parametrize("module_name", JOB_CONTRACT_MODULES)
def test_job_decomposition_contract_documented(module_name):
    module = importlib.import_module(module_name)
    assert "decomposition" in module.__doc__.lower(), (
        f"{module_name} docstring must state its job-decomposition contract"
    )


def test_runner_documents_determinism():
    from repro.experiments import runner

    assert "determinism" in runner.__doc__.lower()
    assert "identical" in (runner.run_all.__doc__ or "").lower() or \
        "deterministic" in (runner.run_all.__doc__ or "").lower()
    assert runner.run_experiment.__doc__
