import inspect
import pkgutil
from importlib import import_module

import lwrfem


def test_only_the_caught_exception_classes_exist():
    # the CLI tells three failures apart: a rejected configuration (exit 2),
    # a failed Newton step and a singular Newton matrix; all else is ValueError
    defined = {
        name
        for info in pkgutil.iter_modules(lwrfem.__path__, "lwrfem.")
        for name, obj in vars(import_module(info.name)).items()
        if inspect.isclass(obj) and issubclass(obj, BaseException)
        and obj.__module__ == info.name
    }
    assert defined == {"ConfigError", "NoConvergenceError", "SingularMatrixError"}
