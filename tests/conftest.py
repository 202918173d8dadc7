from hypothesis import settings

# The default profile is derandomized: every run draws the same examples,
# so a pass or a failure never depends on the random seed. Run with
# --hypothesis-profile=explore to keep searching for new failing inputs;
# add any it finds as @example cases.
settings.register_profile("suite", deadline=None, max_examples=25, derandomize=True)
settings.register_profile("explore", deadline=None, max_examples=500)
settings.load_profile("suite")
