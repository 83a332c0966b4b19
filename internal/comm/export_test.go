package comm

// Relayout stores every row that holds traffic densely (dense), or else
// as a map, or frozen when it carries a uniform term, leaving every entry
// as it was, so a test can check that a reader sees the same traffic in
// any layout.
func (m *Matrix) Relayout(dense bool) {
	for src, f := range m.frozen {
		if f != nil {
			row := make(map[int]Entry, len(f))
			for _, e := range f {
				row[e.Dst] = e.Entry
			}
			m.sparse[src] = row
		}
	}
	m.frozen = nil
	for src := range m.dense {
		switch {
		case dense && m.dense[src] == nil && (len(m.sparse[src]) > 0 || m.term(src).Messages != 0):
			m.promoteRow(src)
		case !dense && m.dense[src] != nil:
			row := make(map[int]Entry)
			for dst, e := range m.dense[src] {
				if e.Messages != 0 {
					row[dst] = e
				}
			}
			m.sparse[src], m.dense[src] = row, nil
		}
	}
	m.freeze()
}
