"""CSS code substrate: the code class, the paper's code catalog, discovery."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "css": ("CSSCode",),
        "catalog": (
            "CATALOG",
            "carbon_code",
            "code_11_1_3",
            "code_16_2_4",
            "get_code",
            "hamming_code",
            "shor_code",
            "steane_code",
            "surface_code_d3",
            "tesseract_code",
            "tetrahedral_code",
        ),
        "search": ("SearchFailure", "find_css_code"),
    },
)
