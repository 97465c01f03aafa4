// lint:allow(lock-discipline): nothing to suppress here
pub fn fine() {}
// lint:allow(not-a-rule): names a rule that does not exist
// lint:allow(lock-discipline)
// lint:allow(error-coverage): the rule this names was deleted
