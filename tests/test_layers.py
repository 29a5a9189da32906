"""The modules of the package import one another in one order only.

A module may import any module that comes before it in ``ORDER`` and
none that comes after, so the layers stack without cycles: the search
strategies (``teacher``) sit below the explanation methods that use them.
"""

import ast
from pathlib import Path

import pytest

import bayesteach

ORDER = (
    "errors", "types", "models", "spaces", "learners", "core", "oracle", "teacher",
    "explainers", "recombine", "studies", "render", "checks", "cli",
)
PACKAGE = Path(bayesteach.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def package_imports(path: Path) -> set:
    """The package modules a source file imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("bayesteach." if node.level == 1 else "") + (node.module or "")
            base = base.rstrip(".")
            names = [base] if "." in base else [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("bayesteach."))
    return found


def test_every_module_has_a_place_in_the_order():
    assert sorted(ORDER) == MODULES


def test_the_package_init_imports_no_package_module():
    """``import bayesteach`` runs before every command, so it loads no
    module of the package: each command imports only what it runs."""
    assert package_imports(PACKAGE / "__init__.py") == set()


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_earlier_modules(module):
    rank = ORDER.index(module)
    later = sorted(m for m in package_imports(PACKAGE / f"{module}.py") if ORDER.index(m) >= rank)
    assert later == [], f"{module} imports {later}, which come at or after it in {ORDER}"


def unused_imports(path: Path) -> list:
    """The names a source file imports, at any depth, and never reads: a
    name counts as read wherever it appears, as a name or as the root of
    an attribute, annotations included."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return sorted(bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


@pytest.mark.parametrize("module", ["__init__", *MODULES])
def test_module_imports_no_name_it_does_not_use(module):
    assert unused_imports(PACKAGE / f"{module}.py") == []


# Definitions kept although nothing in src/ or benchmarks/ names them.
UNREACHED_ALLOWED = {
    "oracle.mh_reference": "the loop-first chain that tests replay mh_sample against",
}
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def named_identifiers(paths) -> tuple[set, set]:
    """Every name and every attribute the source files mention."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def definitions(module: str):
    """(qualified name, name, is a method) of each top-level function and
    class of a package module and of each method of those classes; dunder
    methods are called by Python itself and are left out."""
    for node in ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", item.name, True


def test_every_definition_is_named_by_the_package_or_the_benchmarks():
    """A function or class counts as reached when a source file names it;
    a method only when one reads it as an attribute, so a local variable
    of the same name does not reach it."""
    sources = [PACKAGE / f"{m}.py" for m in MODULES] + sorted(BENCHMARKS.glob("*.py"))
    names, attributes = named_identifiers(sources)
    unreached = sorted(
        qualified for module in MODULES for qualified, name, method in definitions(module)
        if name not in (attributes if method else names | attributes) and qualified not in UNREACHED_ALLOWED
    )
    assert unreached == [], f"nothing in src/ or benchmarks/ names {unreached}"
    allowed_yet_named = sorted(
        q for q in UNREACHED_ALLOWED if q.rsplit(".", 1)[1] in names | attributes
    )
    assert allowed_yet_named == [], f"drop {allowed_yet_named} from UNREACHED_ALLOWED"


def key_calls(path: Path) -> list:
    """Line numbers of the ``.key()`` calls in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "key"
    ]


def test_only_types_builds_the_identity_of_a_value():
    """Explanations and targets are compared, hashed and used as dict
    keys as they are; their canonical key is built in ``types`` alone."""
    calls = {m: key_calls(PACKAGE / f"{m}.py") for m in MODULES if m != "types"}
    assert {m: lines for m, lines in calls.items() if lines} == {}


# core's searches: only teacher runs them, and checks, which compares
# them with brute force
SEARCHES = {"posterior_max", "mh_sample", "mask_expectation"}


def core_names(path: Path) -> set:
    """The names a source file imports from ``core`` or reads as an
    attribute of it."""
    named = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rsplit(".", 1)[-1] == "core":
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "core":
            named.add(node.attr)
    return named


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"core", "teacher", "checks"}))
def test_only_the_strategy_layer_runs_a_search_of_core(module):
    """One search path: every method searches through
    ``teacher.run_strategy``, the only caller of core's argmax, Metropolis
    walk and mask average."""
    assert sorted(core_names(PACKAGE / f"{module}.py") & SEARCHES) == []


def config_keys(tree: ast.AST) -> set:
    """The constant keys read from a name ``config``, as ``config.get(key)``
    or ``config[key]``."""
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get":
            target, key = node.func.value, node.args[0] if node.args else None
        elif isinstance(node, ast.Subscript):
            target, key = node.value, node.slice
        else:
            continue
        if isinstance(target, ast.Name) and target.id == "config" and isinstance(key, ast.Constant):
            keys.add(key.value)
    return keys


def test_every_fit_option_has_a_model_fit_flag():
    """A key a fitter reads from its config that no ``model fit`` flag can
    set is a configuration nothing runs; it belongs in a constant."""
    read = config_keys(ast.parse((PACKAGE / "models.py").read_text(encoding="utf-8")))
    builder = next(
        node for node in ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name == "_model_config_from_args"
    )
    settable = {node.value for node in ast.walk(builder) if isinstance(node, ast.Constant)}
    assert "epochs" in read
    assert sorted(read - settable) == [], "no model fit flag sets these config keys"


def test_one_weighted_solver_and_one_masked_composite():
    """Kernel SHAP and LIME share one weighted fit, and SHAP's coalition
    values are the masked-prediction learner's over a background."""
    explainers = (PACKAGE / "explainers.py").read_text(encoding="utf-8")
    assert explainers.count("np.linalg.lstsq") + explainers.count("np.linalg.solve") == 1
    assert all("_coalition_values" not in p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py"))


def test_one_subset_draw():
    """Every random subset is drawn by ``SubsetSpace.draw``, by the rank
    rule of ``spaces.coalition_rows`` that sampled SHAP also draws by."""
    sources = {m: (PACKAGE / f"{m}.py").read_text(encoding="utf-8") for m in MODULES}
    assert "replace=False" not in sources["spaces"] + sources["studies"]
    assert sum(text.count("def coalition_rows") for text in sources.values()) == 1
    assert "initial_state" not in sources["studies"]


def test_one_owner_per_rule():
    """Each rule is written once: the masked value of one mask is
    ``masked_batch_values``'s, the parameter-level rule reads a learner's
    ``theta_kinds``, an error's ``detail`` reaches the error document by
    one branch, and every study member takes its bias, zero strength
    included, through ``BiasConfig``."""
    sources = {m: (PACKAGE / f"{m}.py").read_text(encoding="utf-8") for m in MODULES}
    assert all("def masked_prediction_likelihood" not in text for text in sources.values())
    assert all("parametric_form" not in text for text in sources.values())
    assert "except ParseError" not in sources["cli"]
    members = [
        node for node in ast.walk(ast.parse(sources["studies"]))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "PopulationMember"
    ]
    assert members
    for call in members:
        bias = call.args[2:] + [k.value for k in call.keywords if k.arg == "bias"]
        assert [getattr(getattr(b, "func", None), "id", None) for b in bias] == ["BiasConfig"], ast.unparse(call)


def test_one_reader_of_a_parameter_value():
    """Every ``--param`` and study param value is read by its declared kind
    through ``models.param_value``, written once; the two checkers it
    replaced, ``recombine._param`` and ``cli._is_number``, are gone."""
    sources = {m: (PACKAGE / f"{m}.py").read_text(encoding="utf-8") for m in MODULES}
    assert [m for m, text in sources.items() if "def param_value(" in text] == ["models"]
    defined = {
        node.name for m in ("recombine", "cli") for node in ast.walk(ast.parse(sources[m]))
        if isinstance(node, ast.FunctionDef)
    }
    assert sorted(defined & {"_param", "_is_number"}) == []


def test_one_pool_table():
    """A class-split learner's pools are scored by ``core.PoolTable``
    alone: the per-pool argmax loop, the uncalled posterior sampler, the
    task record it made redundant and the plda learner's cached per-tuple
    class term are gone, and neither the studies nor the example explainer
    builds an example set of its own. The only cache left in ``learners``
    is the mmd learner's per-target reference terms."""
    sources = {m: (PACKAGE / f"{m}.py").read_text(encoding="utf-8") for m in MODULES}
    defined = {
        node.name for text in sources.values() for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert sorted(defined & {"pool_scores", "sample_posterior", "TwoAfcTask", "class_term"}) == []
    assert [m for m in ("studies", "explainers") if "example_set" in sources[m]] == []
    cached = [
        node.name for node in ast.walk(ast.parse(sources["learners"]))
        if isinstance(node, ast.FunctionDef) and any("lru_cache" in ast.unparse(d) for d in node.decorator_list)
    ]
    assert cached == ["reference_terms"] and sources["learners"].count("lru_cache") == 1
