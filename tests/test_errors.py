import pickle

from anosov_forge import errors

# constructor arguments for every AnosovForgeError subclass
SAMPLES = {
    errors.InputError: ("bad value", "generators"),
    errors.ShapeMismatch: ("2x3 is not square",),
    errors.NonCommuting: (0, 1),
    errors.NotUnimodular: (1, 2),
    errors.NotInvariant: (3,),
    errors.EndpointRoot: ("root at 1/2",),
    errors.PrecisionExhausted: ("sign unresolved", 4096),
    errors.NotAnosovAction: ("zero functional",),
    errors.UndecidedProportionality: ((0, 2), 4096),
    errors.SingularElement: ((1, -1),),
    errors.WitnessSearchExhausted: (1000,),
    errors.DegeneratePlane: ("kernel traces coincide",),
    errors.NotTNS: ("classes 0 and 1",),
    errors.SizeCap: (500, 400),
    errors.RankUnsupported: (1,),
    errors.UndecidedBoundary: (4096,),
    errors.UndecidedAtCap: ("search gave up at its cap",),
}

# errors that the command line reports as undecided (exit 2)
AT_CAP = {
    errors.PrecisionExhausted,
    errors.UndecidedProportionality,
    errors.UndecidedBoundary,
    errors.WitnessSearchExhausted,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_survives_pickling():
    # `analyze --jobs` sends worker errors back to the parent by pickle
    assert set(_subclasses(errors.AnosovForgeError)) == set(SAMPLES)
    for cls, args in SAMPLES.items():
        exc = cls(*args)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert back.args == exc.args
        assert vars(back) == vars(exc)


def test_precision_cap_errors_share_a_base():
    assert set(_subclasses(errors.UndecidedAtCap)) == AT_CAP
