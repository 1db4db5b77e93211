"""Every function and method in ``src/infogeom`` backs a CSV row or has a stated reason to exist.

The CLI runs in-process under ``sys.setprofile`` over every command on the
lattice families at defaults, the row commands on the quadrature families at
n = 1, 2, a config-file run, an explicit box, a run at n = 3 (whose sum the
Q_n store keeps no measure of) and an unknown flag. A function
or method defined in a module of the package that none of these runs calls
fails the test unless ``ALLOWED`` names it with its reason. Methods that
``dataclass`` generates are skipped: their code does not live in the module's
file.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys

import infogeom
from infogeom import cli

LATTICE = ("bernoulli", "binomial", "categorical", "poisson_trunc")
QUADRATURE = ("gauss_known_var", "exponential_dist")
ROW_COMMANDS = ("invariance", "clt", "tensor", "uniqueness")

# qualified name -> why it stays although no CLI run calls it
ALLOWED = {
    "cli.entry": "the console script of pyproject.toml",
    "derived.convolve": "a benchmark tracer target and the cold-build reference of test_derived",
    "derived.iid_product": "the materialized product measure P^n, a reference of test_derived",
    "derived.AffineMap.inverse": "tests transport functions back through a push-forward with it",
    "derived.AffineMap.identity": "the identity map that tests push measures and tangent pairs through",
    "expfam.affine_transform_statistic": "affine statistic maps, a derived-family relation with a planned row",
    "expfam.density_measure": "P_theta as a measure, the base of the product-measure references in tests",
    "expfam.gradient_log_partition_fd": "an FD route to the mean statistic tau that test_expfam compares with",
    "expfam.model_tangent": "the model tangent pair behind invariant_form_value (acceptance criterion 9)",
    "geometry.invariant_form_value": "the invariant-form route to the Fisher form, compared with route B",
    "measures.SignedFiniteMeasure.total_mass": "the mass that tests check push-forwards and tangents keep",
    "measures.almost_equal": "support and weight equality of two measures, used by tests",
    "measures.moments": "mean and covariance of a measure, the reference of the moment tests",
}


def _defined():
    """Code object -> qualified name, for every function and method defined in a package module."""
    found = {}
    for info in pkgutil.iter_modules(infogeom.__path__):
        module = importlib.import_module(f"infogeom.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for member, attr in members:
                attr = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
                code = getattr(attr, "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    found.setdefault(code, ".".join(filter(None, (info.name, name, member))))
    return found


def _runs(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("family = bernoulli\nn = 1,2\n", encoding="utf-8")
    yield ["families"], 0
    for family in LATTICE:
        for command in ROW_COMMANDS:
            yield [command, "--family", family], 0
        yield ["fisher", "--family", family, "--route", "all"], 0
    for family in QUADRATURE:
        for command in ROW_COMMANDS:
            yield [command, "--family", family, "--n", "1,2"], 0
    yield ["clt", "--config", str(config)], 0
    yield ["invariance", "--family", "bernoulli", "--theta-lo", "-3", "--theta-hi", "3", "--n", "1,2"], 0
    yield ["clt", "--family", "bernoulli", "--n", "3"], 0
    yield ["clt", "--family", "bernoulli", "--no-such-flag"], 1


def test_every_function_is_reached_or_allowed(tmp_path):
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv, expected in _runs(tmp_path):
            sys.setprofile(record)
            try:
                code = cli.main(argv)
            finally:
                sys.setprofile(None)
            assert code == expected, argv
    unreached = {name for code, name in _defined().items() if code not in called}
    allowed = set(ALLOWED)
    assert unreached <= allowed, f"reached by no CLI run and not in ALLOWED: {sorted(unreached - allowed)}"
    assert allowed <= unreached, f"ALLOWED names what is gone or now reached: {sorted(allowed - unreached)}"
