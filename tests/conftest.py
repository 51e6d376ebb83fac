"""Helpers shared by the test modules: a model document writer.

The library only reads model documents; tests build documents from
models (a projective space, a sphere, a Künneth product) and edit them.
"""

import json

from spincert.mod2 import SpaceModel, _bits


def space_model_to_dict(model: SpaceModel) -> dict:
    algebra = model.algebra
    names = algebra.names
    non_unit = [i for i, name in enumerate(names) if name != algebra.unit]
    products = []
    for k, i in enumerate(non_unit):
        for j in non_unit[k:]:
            result = sorted(names[b] for b in _bits(algebra.mul[i][j]))
            products.append([names[i], names[j], result])
    # only the degrees that hold bits of the total class, not every degree up to the dimension
    sw_by_degree = {}
    for i in _bits(model.sw):
        if algebra.degrees[i]:
            sw_by_degree.setdefault(algebra.degrees[i], []).append(names[i])
    sw = {str(d): sorted(sw_by_degree[d]) for d in sorted(sw_by_degree)}
    profile = {
        str(d): {"free": free, "torsion": list(tors)}
        for d, (free, tors) in model.int_profile.groups.items()
    }
    return {
        "name": model.name,
        "dimension": model.dimension,
        "basis": [[n, d] for n, d in zip(algebra.names, algebra.degrees)],
        "unit": algebra.unit,
        "products": products,
        "sw": sw,
        "int_profile": profile,
    }


def space_model_to_json(model: SpaceModel) -> str:
    return json.dumps(space_model_to_dict(model), indent=2, ensure_ascii=True) + "\n"

