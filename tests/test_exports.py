"""Every name a vflie module exports through __all__ exists."""

import importlib
import pkgutil

import vflie


def test_every_export_resolves():
    names = ["vflie"] + [
        "vflie." + info.name for info in pkgutil.iter_modules(vflie.__path__)
    ]
    checked = 0
    for name in names:
        module = importlib.import_module(name)
        namespace = {}
        exec("from %s import *" % name, namespace)
        for attr in getattr(module, "__all__", ()):
            assert attr in namespace, "%s.__all__ names missing %r" % (name, attr)
            checked += 1
    assert checked >= 49
