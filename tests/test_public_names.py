"""The package's star-export lists its public API and nothing else."""

from types import ModuleType

import csdmd


def test_all_lists_no_module_and_every_name_resolves():
    exported = {name: getattr(csdmd, name) for name in csdmd.__all__}
    assert not [name for name, obj in exported.items() if isinstance(obj, ModuleType)]
    assert {"exact_dmd", "cosamp", "run_path", "CsdmdError"} <= set(exported)
    namespace = {}
    exec("from csdmd import *", namespace)
    assert "io" not in namespace  # the stdlib module stays unshadowed
