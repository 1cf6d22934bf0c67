package dsl

// Fig3Program is the paper's Fig. 3 program, for the tests that judge it
// through plan.Compile from package dsl_test.
var Fig3Program = fig3Program

// ExprKinds lists every Expr kind ast.go declares, for the tests in package
// dsl_test that must cover each one.
var ExprKinds = exprKindsFromSource
