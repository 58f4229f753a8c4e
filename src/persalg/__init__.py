"""persalg: exact computations in filtered and persistence homological algebra.

Subpackages
-----------
novikov           exact Z2 Novikov arithmetic with rational exponents
gf2               GF(2) linear algebra over int bitmasks (the elimination kernel)
lattice           exact rationals as integers over one common scale
persistence       barcodes and interleaving-type distances
jsonread          readers of JSON input fields, one ValueError per malformed field
filtered_complex  filtered Z2 chain complexes, cones, cone-length
novikov_complex   Floer-type complexes over the Novikov field
sparse            sparse Novikov vectors: in-place sums, levels, expansions
ainf              tabulated filtered A-infinity categories
hochschild        reduced cyclic bar complexes with filtrations
fukaya_models     exact sphere and torus model tabulations
entropy           cone-length growth, entropy estimators, action models
morse             small-variation / large-gradient Morse profiles
cli               command-line interface
"""

__version__ = "0.1.0"
