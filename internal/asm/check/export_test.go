package check

import "github.com/virec/virec/internal/asm"

// BuildFlowGraph builds prog's CFG and reachability, as each pass over
// the program does.
func BuildFlowGraph(prog *asm.Program) { newFlowGraph(prog) }
