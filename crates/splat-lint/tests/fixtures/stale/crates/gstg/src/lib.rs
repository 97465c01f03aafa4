// lint:allow(no-panic-paths): nothing to suppress here
pub fn fine() {}
// lint:allow(not-a-rule): names a rule that does not exist
// lint:allow(no-panic-paths)
// lint:allow(error-coverage): the rule this names was deleted
