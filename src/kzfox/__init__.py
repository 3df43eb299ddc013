"""Computer-algebra and numerical-verification kernel for regularized
holonomy of the logarithmic flat connection on the punctured plane, Fox
calculus, double brackets, coaction maps, and the induced Poisson structures
on matrix representation spaces.

Import from the modules: `kzfox.free_hopf` (series), `kzfox.fox_calculus`,
`kzfox.brackets_coactions` and `kzfox.trivial_extension` (the exact layer),
`kzfox.exact_suite` (its identity suite), `kzfox.kz_paths`,
`kzfox.kz_holonomy` and `kzfox.rep_space` (the numeric layer), and
`kzfox.cli` (the command line)."""
