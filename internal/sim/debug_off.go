//go:build !simdebug

package sim

// engineDebug is off in release builds; see debug_on.go.
const engineDebug = false

func (e *Engine) checkPop(*Event, int) {}
