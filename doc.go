// Package csaw is a from-scratch Go reproduction of C-Saw, the embedded
// domain-specific language for reconfigurable, distributed software
// architecture (Zhu, Zhao, Sultana; IPPS 2023 / IJNC 14(1) 2024).
//
// The library decouples a program's architecture — how invocations of
// application logic are organized and coordinated — from the application
// logic itself. Architecture is expressed as the definition and management
// of distributed key-value tables attached to junctions, the points where
// instances evaluate DSL expressions.
//
// Layout:
//
//   - internal/dsl        — the C-Saw language (Table 1) as a Go EDSL
//   - internal/formula    — propositional formulas, ternary logic, DNF
//   - internal/kv         — junction KV tables with the local-priority rule
//   - internal/runtime    — the executor (guards, waits, transactions, timeouts)
//   - internal/compart    — the libcompart-equivalent distributed substrate
//   - internal/serial     — the depth-bounded serialization framework (§9)
//   - internal/events     — event-structure semantics (§8)
//   - internal/patterns   — the architecture patterns of §5 and §7
//   - internal/miniredis, minicurl, minisuricata — evaluation substrates
//   - internal/bench      — regenerates every table and figure of §10
//
// See README.md for a tour and examples/ for runnable programs; cmd/csaw-bench
// regenerates the paper's evaluation.
package csaw
