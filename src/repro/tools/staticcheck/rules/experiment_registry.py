"""SC601 experiment-registry: experiment modules expose the common API.

Every ``experiments/*.py`` module other than ``__init__`` is driven by the
CLI (``python -m repro <id>``) and the tests through one convention:

* a top-level ``run(...)`` whose parameters ALL have defaults, so
  ``module.run()`` regenerates the figure with the paper's configuration;
* a top-level ``render(result)`` turning the result into text;
* an entry in ``experiments/__init__.py``'s ``REGISTRY`` (id → module
  name string) so harnesses can enumerate it.

A module that drifts from the convention silently disappears from full
regeneration runs, and a ``REGISTRY`` value naming no module fails only
when that id is run — exactly the kind of rot this checker exists to stop.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from ..engine import ModuleInfo, Project, Rule, Violation


def _is_experiment_file(module: ModuleInfo) -> bool:
    path = Path(module.relpath)
    return (
        path.parent.name == "experiments"
        and path.suffix == ".py"
        and path.name != "__init__.py"
    )


def _toplevel_function(tree: ast.Module, name: str) -> ast.FunctionDef | None:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _all_params_defaulted(fn: ast.FunctionDef) -> bool:
    args = fn.args
    required_positional = len(args.args) - len(args.defaults)
    if required_positional > 0:
        return False
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        del arg
        if default is None:
            return False
    return True


def _registry(project: Project) -> tuple[ModuleInfo, list[ast.Constant]] | None:
    """experiments/__init__.py and the module-name strings its
    ``REGISTRY`` dict maps ids to; None when there is no such dict."""
    init = project.by_relpath("experiments/__init__.py")
    if init is None:
        return None
    for node in ast.walk(init.tree):
        if not isinstance(node, ast.Assign):
            continue
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if "REGISTRY" in targets and isinstance(node.value, ast.Dict):
            return init, [
                value
                for value in node.value.values
                if isinstance(value, ast.Constant) and isinstance(value.value, str)
            ]
    return None


class ExperimentRegistryRule(Rule):
    id = "SC601"
    name = "experiment-registry"
    description = (
        "experiments/*.py must expose run() (all params defaulted) and "
        "render(result), and be listed in REGISTRY by module name"
    )

    def check_project(self, project: Project) -> Iterator[Violation]:
        experiment_modules = [m for m in project.modules if _is_experiment_file(m)]
        if not experiment_modules:
            return

        registry = _registry(project)
        registered = (
            None if registry is None else {value.value for value in registry[1]}
        )

        for module in experiment_modules:
            module_name = Path(module.relpath).stem
            run = _toplevel_function(module.tree, "run")
            if run is None:
                yield self.violation(
                    module,
                    module.tree,
                    f"experiment module {module_name!r} has no top-level run()",
                )
            elif not _all_params_defaulted(run):
                yield self.violation(
                    module,
                    run,
                    f"{module_name}.run() has parameters without defaults; the "
                    "harness must be able to call run() with no arguments",
                )
            render = _toplevel_function(module.tree, "render")
            if render is None:
                yield self.violation(
                    module,
                    module.tree,
                    f"experiment module {module_name!r} has no top-level "
                    "render(result)",
                )
            elif not render.args.args:
                yield self.violation(
                    module,
                    render,
                    f"{module_name}.render() must accept the run() result as "
                    "its first parameter",
                )
            if registered is not None and module_name not in registered:
                yield self.violation(
                    module,
                    module.tree,
                    f"experiment module {module_name!r} is missing from "
                    "experiments/__init__.py REGISTRY",
                )

        if registry is None:
            return
        init, values = registry
        module_names = {Path(m.relpath).stem for m in experiment_modules}
        for value in values:
            if value.value not in module_names:
                yield self.violation(
                    init,
                    value,
                    f"REGISTRY names module {value.value!r}, but there is no "
                    f"experiments/{value.value}.py",
                )
