"""Each vflie module's __all__ names exactly the public functions and classes
that module defines, and every name in it resolves."""

import importlib
import inspect
import pkgutil

import vflie


def test_every_export_resolves():
    names = ["vflie"] + [
        "vflie." + info.name for info in pkgutil.iter_modules(vflie.__path__)
    ]
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        namespace = {}
        exec("from %s import *" % name, namespace)
        for attr in exported:
            assert attr in namespace, "%s.__all__ names missing %r" % (name, attr)
        defined = {
            attr
            for attr, obj in vars(module).items()
            if not attr.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == name
        }
        exported_definitions = {
            attr
            for attr in exported
            if inspect.isfunction(namespace[attr]) or inspect.isclass(namespace[attr])
        }
        assert exported_definitions == defined, name
