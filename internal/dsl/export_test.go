package dsl

// Fig3Program is the paper's Fig. 3 program, for the tests that judge it
// through plan.Compile from package dsl_test.
var Fig3Program = fig3Program
