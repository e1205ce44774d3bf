package obs

// TraceRoots exposes the stage trace's root capacity to the external tests.
const TraceRoots = traceRoots

// BoundAddr is the -debug-addr listener's address, empty until Serve has
// opened it.
func (f *CmdFlags) BoundAddr() string { return f.boundAddr }
