"""One reader for every JSON input file: run configs, grids, model files and MLP weight files.

Each file builds a dataclass or a loader from its fields, by name, so the
schema of a file is the signature of what it builds.  A malformed file is a
ConfigError that names the file and the dotted field.
"""

import inspect
import json
import math


class ConfigError(ValueError):
    """A malformed input file or flag, annotated with the offending file and field."""


class FieldError(ValueError):
    """A value check that fails on the parameter ``field`` of a dataclass or loader.

    Read from a file, it names the JSON field that parameter is read from.
    """

    def __init__(self, field, problem):
        super().__init__(f"{field} {problem}")
        self.field = field
        self.problem = problem


# The JSON values a field of each annotation takes; a bool is never a number.
_JSON_TYPES = {
    float: ((int, float), "a number"),
    int: ((int,), "an integer"),
    str: ((str,), "a string"),
    tuple: ((list,), "an array"),
    tuple[float, ...]: ((list,), "an array"),
    tuple[bool, ...]: ((list,), "an array"),
}

# The JSON values each item of a flat array field takes.
_ITEM_TYPES = {
    tuple[float, ...]: ((int, float), "a number"),
    tuple[bool, ...]: ((bool,), "a boolean"),
}


def _dotted(where, key):
    return f"{where}.{key}" if where else key


def json_object(doc, path, where):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: {where + ' ' if where else ''}must be a JSON object")
    return doc


def split_fields(doc, keys):
    """The fields of a JSON object named in ``keys``, and the rest."""
    return (
        {key: value for key, value in doc.items() if key in keys},
        {key: value for key, value in doc.items() if key not in keys},
    )


def finite(number) -> bool:
    """Whether ``number`` is a finite double; an integer beyond the double range is not."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def positive_number(value) -> bool:
    """Whether ``value`` is a positive finite int or float; a bool is not a number here."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and finite(value) and value > 0


def _finite(value, path, name):
    """Reject a JSON number, alone or inside arrays, that is not a finite double.

    Arrays in input files hold numbers, so a string or a bool inside one is
    an error too.
    """
    if isinstance(value, list):
        for index, item in enumerate(value):
            if isinstance(item, (str, bool)):
                raise ConfigError(f"{path}: field {name}[{index}] must be a number, got {item!r}")
            _finite(item, path, f"{name}[{index}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if not finite(value):
            raise ConfigError(f"{path}: field {name} must be a finite double")


def typed(value, annotation, path, name):
    """``value``, if it is JSON of the type ``annotation`` names; other fields pass as they are.

    No JSON number in ``value`` may lie outside the finite doubles, and each
    item of a flat array field is JSON of its item type: a number for
    ``tuple[float, ...]``, a boolean for ``tuple[bool, ...]``.  Only a
    ``tuple[bool, ...]`` field holds bools, and it holds nothing else.  A
    flat array is walked once, checking each item's type and then its
    finiteness.
    """
    if annotation not in _ITEM_TYPES:
        _finite(value, path, name)
    if annotation in _JSON_TYPES:
        types, noun = _JSON_TYPES[annotation]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"{path}: field {name} must be {noun}, got {value!r}")
    if annotation in _ITEM_TYPES:
        types, noun = _ITEM_TYPES[annotation]
        for index, item in enumerate(value):
            # a bool is an int, so a number array names its types exactly
            if type(item) not in types:
                raise ConfigError(f"{path}: field {name}[{index}] must be {noun}, got {item!r}")
            if not finite(item):  # always true of a bool
                raise ConfigError(f"{path}: field {name}[{index}] must be a finite double")
    return value


def build(factory, doc, path, where, sections=None, names=None, **given):
    """Call ``factory`` with the fields of the JSON object ``doc``, by name.

    ``factory`` is a dataclass or a loader, or a table from the "kind" field
    to one.  Each of its parameters not ``given`` is a JSON field, named as
    in ``names`` where the two differ.  A field in ``sections`` is built by
    that function from its JSON value and dotted name; every other field
    must be JSON of its annotation's type.  Defaults and value checks are the
    factory's own, and a JSON null means the default.  An unknown, missing,
    mistyped or, by a FieldError of the factory, rejected field is a
    ConfigError that names the file and the dotted field; a ConfigError of
    the factory, which names its own file, passes unchanged.
    """
    doc = json_object(doc, path, where)
    if isinstance(factory, dict):
        doc = dict(doc)
        kind = doc.pop("kind", None)
        if kind is None:
            raise ConfigError(f"{path}: missing field {_dotted(where, 'kind')}")
        if not isinstance(kind, str) or kind not in factory:
            raise ConfigError(f"{path}: unknown {_dotted(where, 'kind')} {kind!r}")
        factory = factory[kind]
    names = names or {}
    params = {
        names.get(name, name): param
        for name, param in inspect.signature(factory).parameters.items()
        if name not in given
    }
    kwargs = dict(given)
    for key, value in doc.items():
        name = _dotted(where, key)
        if key not in params:
            raise ConfigError(f"{path}: unknown field {name}")
        param = params[key]
        if value is not None:
            section = (sections or {}).get(param.name)
            kwargs[param.name] = (
                section(value, name) if section else typed(value, param.annotation, path, name)
            )
    for key, param in params.items():
        if param.default is param.empty and param.name not in kwargs:
            raise ConfigError(f"{path}: missing field {_dotted(where, key)}")
    try:
        return factory(**kwargs)
    except ConfigError:
        raise  # it names its own file, such as an MLP weight file
    except (TypeError, ValueError) as exc:
        keys = {param.name: key for key, param in params.items()}
        # a FieldError may name a field inside a section, such as initial.x
        field = exc.field if isinstance(exc, FieldError) else ""
        head, dot, rest = field.partition(".")
        if head in keys:
            raise ConfigError(
                f"{path}: field {_dotted(where, keys[head])}{dot}{rest} {exc.problem}"
            ) from exc
        raise ConfigError(f"{path}: {where + ': ' if where else ''}{exc}") from exc


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
