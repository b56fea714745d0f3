SELECT id, name FROM users WHERE age = 42
SELECT id, name FROM users WHERE age = 43
SELECT id, name FROM users WHERE age = 42
SELECT balance FROM accounts WHERE user_id = 7 AND status = 'open'
SELECT balance FROM accounts WHERE user_id = 8 AND status = 'open'
SELECT balance FROM accounts WHERE user_id = 7 OR status = 'closed'
SELECT u.name, a.balance FROM users u JOIN accounts a ON u.id = a.user_id WHERE a.balance = 100
SELECT count(*) FROM sessions
SELECT count(*) FROM sessions
SELECT count(*) FROM sessions
SELECT count(*) FROM sessions
UPDATE users SET name = 'x' WHERE id = 1
INSERT INTO audit VALUES (1, 2)
EXEC sp_nightly_cleanup 99
DELETE FROM sessions WHERE expires < 0
@@ not sql at all @@
SELECT FROM WHERE
