"""One hypothesis profile for the whole suite: the same examples on every run
(``derandomize``) and no per-example deadline, so local runs and CI agree."""

from hypothesis import settings

settings.register_profile("geomflow", derandomize=True, deadline=None)
settings.load_profile("geomflow")
