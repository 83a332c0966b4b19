package comm

// Relayout stores every non-empty row densely (dense) or as a map,
// leaving every entry as it was, so a test can check that a reader sees
// the same traffic in either layout.
func (m *Matrix) Relayout(dense bool) {
	for src := range m.dense {
		switch {
		case dense && m.dense[src] == nil && len(m.sparse[src]) > 0:
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
}
