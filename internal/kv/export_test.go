package kv

// bufferCaps reports the capacities of the buffers a data variable holds:
// its value's and its spare's.
func (c *DataCell) bufferCaps() (value, spare int) {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	return cap(c.d.Data), cap(c.spare)
}
