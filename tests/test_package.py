import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import shgspec


def test_every_all_name_exists():
    """Each shgspec module's __all__ lists only names the module defines."""
    checked = 0
    for info in pkgutil.iter_modules(shgspec.__path__):
        mod = importlib.import_module(f"shgspec.{info.name}")
        names = getattr(mod, "__all__", None)
        if names is None:
            continue
        checked += 1
        assert len(set(names)) == len(names), info.name
        missing = [n for n in names if not hasattr(mod, n)]
        assert not missing, (info.name, missing)
    assert checked >= 8


def test_every_public_definition_is_in_all():
    """Each public function or class a module defines is in its __all__, so
    that a star import and the module's documented API see all of them."""
    checked = 0
    for info in pkgutil.iter_modules(shgspec.__path__):
        mod = importlib.import_module(f"shgspec.{info.name}")
        names = getattr(mod, "__all__", None)
        if names is None:
            continue
        checked += 1
        left_out = [
            name for name, obj in vars(mod).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == mod.__name__
            and name not in names
        ]
        assert not left_out, (info.name, left_out)
    assert checked >= 8


def test_array_holding_dataclasses_compare_by_identity():
    """A generated __eq__ compares fields as a tuple, which raises on ndarray
    fields; every dataclass with an ndarray field keeps object identity."""
    found = []
    for info in pkgutil.iter_modules(shgspec.__path__):
        mod = importlib.import_module(f"shgspec.{info.name}")
        for name, obj in vars(mod).items():
            if (dataclasses.is_dataclass(obj) and obj.__module__ == mod.__name__
                    and any("ndarray" in str(f.type) for f in dataclasses.fields(obj))):
                found.append(name)
                assert obj.__eq__ is object.__eq__, name
    assert sorted(found) == ["GradientKernel", "IsolatingNeighborhoods", "NodeFamily",
                             "Potential", "SigmaSolution", "SpectrumTable"]


def test_private_dataclass_fields_are_not_constructor_arguments():
    """A dataclass field whose name starts with _ is internal state, so it is
    declared init=False and no positional argument can bind to it."""
    found = []
    for info in pkgutil.iter_modules(shgspec.__path__):
        mod = importlib.import_module(f"shgspec.{info.name}")
        for name, obj in vars(mod).items():
            if dataclasses.is_dataclass(obj) and obj.__module__ == mod.__name__:
                for f in dataclasses.fields(obj):
                    if f.name.startswith("_"):
                        found.append(f"{name}.{f.name}")
                        assert not f.init, found[-1]
    assert "Potential._cache" in found


def test_every_run_config_field_is_set_by_a_flag():
    """RunConfig holds exactly the values the CLI flags set, so a new knob
    needs a flag too."""
    from shgspec.cli import _FLAG_ATTRS, _build_parser
    from shgspec.config import RunConfig

    names = [f.name for f in dataclasses.fields(RunConfig)]
    assert sorted(names) == sorted(_FLAG_ATTRS.values())
    args = _build_parser().parse_args(["eval", "v.json", "--lambda", "1,0"])
    assert all(hasattr(args, dest) for dest in _FLAG_ATTRS)


def test_zero_tail_enters_products_through_node_product_alone():
    """The zero-potential tail is named, outside its own definition, only in
    node_product, which closes every product with it, and in the evaluator's
    tail at 0, which the products at 0 and infinity share."""
    users = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Name) and child.id == "zero_tail") or (
                    isinstance(child, ast.Attribute) and child.attr == "zero_tail"):
                users.add(scope)
            walk(child, scope)

    for path in pathlib.Path(shgspec.__file__).parent.glob("*.py"):
        walk(ast.parse(path.read_text()), path.stem)
    assert users == {"roots_products.node_product",
                     "roots_products.CanonicalRootEvaluator.__init__"}


def test_one_counting_routine_owns_the_windings_and_the_expected_counts():
    """In spectrum.py only _count calls winding_number, and only _on_contour,
    _newton_batch and delta_sign_check call integrate_many; verification.py
    names no count kind and no expected annulus count (36, 18, 20), so the
    expected counts live in spectrum.py alone."""
    spectrum = pathlib.Path(shgspec.__file__).parent / "spectrum.py"
    callers = {"winding_number": set(), "integrate_many": set()}

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, child.name)
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) in callers:
                callers[child.func.id].add(scope)
            walk(child, scope)

    walk(ast.parse(spectrum.read_text()), "spectrum")
    assert callers == {"winding_number": {"_count"},
                       "integrate_many": {"_on_contour", "_newton_batch", "delta_sign_check"}}
    verification = ast.parse((spectrum.parent / "verification.py").read_text())
    constants = {node.value for node in ast.walk(verification) if isinstance(node, ast.Constant)}
    assert not constants & {"chi_p", "chi_D", "ddelta", 36, 18, 20}


def test_table_loops_read_arrays_not_per_index_accessors():
    """No loop or comprehension in run_suite, sign_tables, _disc_row,
    build_isolating, _check_inclusion or solve_sigma (its contour check)
    names a per-index accessor of the table or the discs: they read the
    arrays."""
    accessors = {"lam_pm", "mu_n", "lam_dot_n", "tau", "gamma", "gap2", "lam2", "tau2",
                 "gamma2", "U", "U2"}
    scope = {"verification.py": {"run_suite"}, "roots_products.py": {"sign_tables"},
             "spectrum.py": {"_disc_row", "build_isolating", "_check_inclusion"},
             "differentials.py": {"solve_sigma"}}
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    seen, named = set(), {}
    for name, functions in scope.items():
        tree = ast.parse((pathlib.Path(shgspec.__file__).parent / name).read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name in functions:
                seen.add(fn.name)
                for loop in (node for node in ast.walk(fn) if isinstance(node, loops)):
                    attrs = {n.attr for n in ast.walk(loop) if isinstance(n, ast.Attribute)}
                    if attrs & accessors:
                        named.setdefault(fn.name, set()).update(attrs & accessors)
    assert seen == set().union(*scope.values())
    assert named == {}


def test_the_per_index_accessors_stay_deleted():
    """Slots (j, m) are read through one array map (spectrum._slots): the
    per-index accessor layer of the table, its discs and the sigma solution
    is gone, and so is its scalar map spectrum._single."""
    from shgspec.differentials import SigmaSolution
    from shgspec.spectrum import IsolatingNeighborhoods, SpectrumTable

    deleted = {
        SpectrumTable: ("_get", "lam_pm", "mu_n", "lam_dot_n", "tau", "gamma", "lam2", "tau2",
                        "gamma2", "mu2", "lam_dot2", "gap2"),
        IsolatingNeighborhoods: ("U", "U2", "gamma_single", "contour"),
        SigmaSolution: ("sigma1_at", "sigma2_at"),
    }
    for cls, names in deleted.items():
        assert [name for name in names if hasattr(cls, name)] == [], cls.__name__
    assert not hasattr(importlib.import_module("shgspec.spectrum"), "_single")
    public = {name for name, _ in inspect.getmembers(SpectrumTable, callable)
              if not name.startswith("_")}
    assert public == {"evaluator", "family", "truncated", "to_json", "from_json"}


def test_one_path_run_builds_every_gradient_kernel():
    """The second, hand-derived formula family of the gradients is gone, and
    exactly one function of gradients.py, _floquet_kernels, passes
    path_nodes to the integrator: every kernel combines its four."""
    gradients = importlib.import_module("shgspec.gradients")
    deleted = ("_grad_expr", "_path_data", "grad_m4_at_dirichlet", "grad_periodic_via_delta",
               "SIMPLE_EV_FLOOR", "_require_simple")
    assert [name for name in deleted if hasattr(gradients, name)] == []
    tree = ast.parse(pathlib.Path(gradients.__file__).read_text())
    path_runs = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for call in ast.walk(fn) if isinstance(call, ast.Call)
                 if any(kw.arg == "path_nodes" for kw in call.keywords)}
    assert path_runs == {"_floquet_kernels"}


def test_the_benchmark_hooks_resolve():
    """bench/tracer.py patches every TARGETS and HOT name and reads the
    parameters and result fields below, and bench/workloads.py calls the
    functions below in these shapes: a simplification that breaks a traced
    or timed run fails here."""
    import importlib.util

    from shgspec import differentials, monodromy, quadrature, roots_products, spectrum, verification

    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
    assert t.layer_of and not t._undo
    read = {spectrum.build_table: "n_max", spectrum.count_annulus: "N",
            roots_products.verify_product_reps: "K", differentials.solve_sigma: "n",
            monodromy.integrate_many: "lams", quadrature.winding_number: "spec",
            roots_products.CanonicalRootEvaluator.chip: "lam"}
    for fn, name in read.items():
        assert name in inspect.signature(fn).parameters, (fn.__name__, name)
    assert "K" in inspect.signature(differentials.solve_sigma).parameters
    fields = {f.name for f in dataclasses.fields(differentials.SigmaSolution)}
    assert {"newton_iters", "clamp_events"} <= fields
    x = object()
    shapes = [
        (spectrum.build_table, (x, 16), {"tol": 1e-13}),
        (spectrum.build_isolating, (x, x), {"nodes": 64}),
        (spectrum.certify_counts, (x, x, x), {"n_range": x, "tol": 1e-11}),
        (spectrum.delta_sign_check, (x, x), {"tol": 1e-11}),
        (differentials.solve_sigma, (x, x, 0, 16), {"tol": 1e-9, "max_iter": 12}),
        (differentials.verify_normalization, (x, x, x), {"nodes": 96}),
        (differentials.verify_negative_normalization, (x, x, x, x, x), {"nodes": 96}),
        (verification.interpolation_self_test, (x,), {"K": 16, "seed": 0}),
    ]
    for fn, args, kwargs in shapes:
        inspect.signature(fn).bind(*args, **kwargs)


def test_every_product_reads_its_own_table_range():
    """No product, canonical root or sigma workspace takes a truncation: each
    reads its table's range n_max, and a smaller truncation is a smaller
    table.  The per-truncation evaluator cache and the readers that made up
    zero-potential rows beyond n_max are gone."""
    from shgspec import differentials, roots_products as rp
    from shgspec.spectrum import IsolatingNeighborhoods, SpectrumTable

    fns = (SpectrumTable.evaluator, SpectrumTable.family, rp.CanonicalRootEvaluator,
           rp.NodeFamily.from_table, rp.f1n, rp.product_chi_p, rp.product_chi_D,
           rp.product_delta_dot, rp.constraint_products, differentials.SigmaWorkspace)
    assert [fn.__qualname__ for fn in fns if "K" in inspect.signature(fn).parameters] == []
    assert not hasattr(IsolatingNeighborhoods, "_at")
    assert not hasattr(SpectrumTable, "_evaluators")
    assert "_evaluators" not in {f.name for f in dataclasses.fields(SpectrumTable)}
