package flag

// On reports Enabled; cmd/tool calls it.
func On() bool { return Enabled }
