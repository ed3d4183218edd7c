from hypothesis import Phase, settings

# tools/mutants.py asks only whether each named test fails, so its runs
# generate the same examples but do not shrink a failing one.
settings.register_profile(
    "mutants", phases=[p for p in Phase if p not in (Phase.shrink, Phase.explain)]
)
